(* Use cases 4 and 8 from the paper: debugging long-running jobs by
   checkpoint replay.  Interval checkpointing (--interval) saves an image
   every 2 simulated seconds; when the job later "hits a bug", we restart
   from the image taken just before it and replay deterministically into
   the bug as many times as we like — the "debug-recompile cycle" shrinks
   to a restart.

   Run with:  dune exec examples/debug_replay.exe *)

(* A long job that corrupts its accumulator at a specific iteration — the
   "bug" we want to replay. *)
module Buggy = struct
  type state = { iter : int; acc : int }

  let name = "example:buggy"

  let codec =
    Util.Codec.(
      record (fun iter acc -> { iter; acc })
      |> field uvarint (fun st -> st.iter)
      |> field varint (fun st -> st.acc)
      |> seal)

  let init ~argv:_ = { iter = 0; acc = 0 }
  let bug_at = 700

  let step (ctx : Simos.Program.ctx) st =
    let st = { iter = st.iter + 1; acc = st.acc + st.iter } in
    let st = if st.iter = bug_at then { st with acc = -999999 } (* the bug *) else st in
    (* leave a trace of the last state so the "user" can inspect it *)
    if st.iter mod 100 = 0 || st.iter = bug_at then begin
      match ctx.open_file "/tmp/trace" with
      | Ok fd ->
        ignore (ctx.write_fd fd (Printf.sprintf "iter=%d acc=%d\n" st.iter st.acc));
        ctx.close_fd fd
      | Error _ -> ()
    end;
    if st.iter >= 2000 then Simos.Program.Exit 0 else Simos.Program.Compute (st, 10e-3)
end

let trace cluster node =
  match Simos.Vfs.lookup (Simos.Kernel.vfs (Simos.Cluster.kernel cluster node)) "/tmp/trace" with
  | Some f ->
    let lines = String.split_on_char '\n' (String.trim (Simos.Vfs.read_all f)) in
    List.nth lines (List.length lines - 1)
  | None -> "(no trace)"

let () =
  Simos.Program.register (module Buggy);
  let cluster = Simos.Cluster.create ~nodes:2 () in
  let options = { Dmtcp.Options.default with Dmtcp.Options.interval = Some 2.0 } in
  let rt = Dmtcp.Api.install cluster ~options () in
  let engine = Simos.Cluster.engine cluster in

  ignore (Dmtcp.Api.launch rt ~node:1 ~prog:"example:buggy" ~argv:[]);

  (* let the job run; interval checkpoints happen automatically.  The bug
     corrupts the accumulator at iteration 700 (t ~= 7s). *)
  Sim.Engine.run ~until:6.9 engine;
  (* grab the most recent pre-bug image set *)
  let pre_bug = Dmtcp.Api.restart_script rt in
  Printf.printf "checkpoints so far: every 2 s; last image before the bug captured at t=%.1f\n"
    (Dmtcp.Runtime.ckpt_info rt).Dmtcp.Runtime.started;

  Sim.Engine.run ~until:8.0 engine;
  Printf.printf "bug observed:   %s\n" (trace cluster 1);

  (* replay from the pre-bug image — twice, to show it is repeatable *)
  for attempt = 1 to 2 do
    Dmtcp.Api.kill_computation rt;
    Dmtcp.Api.restart rt pre_bug;
    Dmtcp.Api.await_restart rt;
    Sim.Engine.run ~until:(Simos.Cluster.now cluster +. 1.5) engine;
    Printf.printf "replay %d state: %s (deterministically re-entering the bug)\n" attempt
      (trace cluster 1)
  done;
  print_endline "the buggy window can now be single-stepped in a debugger, repeatedly"
