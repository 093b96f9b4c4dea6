(* Quickstart: write a small checkpointable program against the public
   API, run it under dmtcp_checkpoint on a simulated cluster, checkpoint
   it mid-run, kill it, and restart it from the image.

   Run with:  dune exec examples/quickstart.exe *)

(* A user program is a serializable state machine (see Simos.Program).
   This one counts primes below a bound and writes the count to a file.
   Everything that must survive a checkpoint lives in [state], and
   [codec] describes it once, field by field, for both the checkpoint
   writer and the restart reader. *)
module Prime_counter = struct
  type state = { n : int; bound : int; found : int }

  let name = "example:primes"

  let codec =
    Util.Codec.(
      record (fun n bound found -> { n; bound; found })
      |> field uvarint (fun st -> st.n)
      |> field uvarint (fun st -> st.bound)
      |> field uvarint (fun st -> st.found)
      |> seal)

  let init ~argv =
    match argv with
    | [ bound ] -> { n = 2; bound = int_of_string bound; found = 0 }
    | _ -> { n = 2; bound = 10_000; found = 0 }

  let is_prime n =
    let rec go d = d * d > n || (n mod d <> 0 && go (d + 1)) in
    n >= 2 && go 2

  let step (ctx : Simos.Program.ctx) st =
    if st.n > st.bound then begin
      (match ctx.open_file "/tmp/primes" with
      | Ok fd ->
        ignore (ctx.write_fd fd (Printf.sprintf "%d primes below %d" st.found st.bound));
        ctx.close_fd fd
      | Error _ -> ());
      Simos.Program.Exit 0
    end
    else
      (* one candidate per step, costing a little simulated CPU *)
      Simos.Program.Compute
        ({ st with n = st.n + 1; found = (st.found + if is_prime st.n then 1 else 0) }, 50e-6)
end

let () =
  Simos.Program.register (module Prime_counter);

  (* a 4-node cluster with DMTCP installed *)
  let cluster = Simos.Cluster.create ~nodes:4 () in
  let rt = Dmtcp.Api.install cluster () in

  (* dmtcp_checkpoint example:primes 20000   (on node 1) *)
  ignore (Dmtcp.Api.launch rt ~node:1 ~prog:"example:primes" ~argv:[ "20000" ]);

  (* let it run for half a (simulated) second, then checkpoint *)
  Sim.Engine.run ~until:0.5 (Simos.Cluster.engine cluster);
  Dmtcp.Api.checkpoint_now rt;
  Printf.printf "checkpoint took %.3f simulated seconds\n" (Dmtcp.Api.last_checkpoint_seconds rt);

  let script = Dmtcp.Api.restart_script rt in
  print_string (Dmtcp.Restart_script.to_text script);

  (* the machine dies... *)
  Dmtcp.Api.kill_computation rt;

  (* ...and the computation resumes from the image, on a different node *)
  let script = Dmtcp.Restart_script.remap script (fun _ -> 3) in
  Dmtcp.Api.restart rt script;
  Dmtcp.Api.await_restart rt;
  Printf.printf "restart took %.3f simulated seconds\n" (Dmtcp.Api.last_restart_seconds rt);

  (* run to completion and read the result off node 3 *)
  Simos.Cluster.run cluster;
  match Simos.Vfs.lookup (Simos.Kernel.vfs (Simos.Cluster.kernel cluster 3)) "/tmp/primes" with
  | Some f -> Printf.printf "result: %s\n" (Simos.Vfs.read_all f)
  | None -> print_endline "ERROR: no result file"
