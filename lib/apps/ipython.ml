module C = Util.Codec

let shell_name = "apps:ipython-shell"
let demo_name = "apps:ipython-demo"
let shell_mem_bytes = 28_000_000
let demo_mem_bytes = 35_000_000

(* ------------------------------------------------------------------ *)
(* shell: single process, pty + heap, idle *)

module Shell = struct
  type state = S_boot | S_idle of int  (* slave fd *)

  let name = shell_name

  let codec =
    C.(
      variant name (fun boot idle w -> function S_boot -> boot w | S_idle fd -> idle w fd)
      |> case 0 [] S_boot
      |> case 1 [ varint ] (fun fd -> S_idle fd)
      |> sealv)

  let init ~argv:_ = S_boot

  let step (ctx : Simos.Program.ctx) st =
    match st with
    | S_boot ->
      ignore (Workload_mem.alloc ctx ~bytes:shell_mem_bytes ~mix:Workload_mem.mostly_text ~seed:1234);
      let _master, slave = ctx.open_pty () in
      ignore (ctx.write_fd slave "In [1]: ");
      Simos.Program.Block (S_idle slave, Simos.Program.Readable slave)
    | S_idle fd -> (
      (* echo any typed input back, readline-style *)
      match ctx.read_fd fd ~max:4096 with
      | `Data d ->
        ignore (ctx.write_fd fd d);
        Simos.Program.Block (st, Simos.Program.Readable fd)
      | `Eof -> Simos.Program.Exit 0
      | `Would_block | `Err _ -> Simos.Program.Block (st, Simos.Program.Readable fd))
end

(* ------------------------------------------------------------------ *)
(* demo: controller/engines over raw sockets (via the Mpi transport,
   which is itself plain sockets) *)

let task_value t = sqrt (float_of_int t) +. 1.0

module Demo_kernel = struct
  type master = { ntasks : int; next : int; got : int; acc : float; idle : int list }

  type kstate =
    | Controller of master
    | Engine

  let prog_name = demo_name
  let short = "ipython-demo"
  let mem_bytes = demo_mem_bytes
  let mem_mix = Workload_mem.mostly_text
  let neighbors ~rank:_ ~size:_ = []

  let kinit ~rank ~size:_ ~extra =
    let ntasks = match extra with s :: _ -> int_of_string s | [] -> 400 in
    if rank = 0 then Controller { ntasks; next = 0; got = 0; acc = 0.; idle = [] } else Engine

  let codec_k =
    C.(
      variant (prog_name ^ " kernel") (fun controller engine w -> function
        | Controller { ntasks; next; got; acc; idle } -> controller w ntasks next got acc idle
        | Engine -> engine w)
      |> case 0
           [ uvarint; uvarint; uvarint; f64; list uvarint ]
           (fun ntasks next got acc idle -> Controller { ntasks; next; got; acc; idle })
      |> case 1 [] Engine
      |> sealv)

  let kstep ctx comm k =
    let size = Mpi.size comm in
    match k with
    | Controller m ->
      let m = ref m in
      let progressed = ref true in
      while !progressed do
        progressed := false;
        (match Mpi.recv_any comm ~tag:'q' with
        | Some (src, _) ->
          m := { !m with idle = src :: !m.idle };
          progressed := true
        | None -> ());
        match Mpi.recv_any comm ~tag:'r' with
        | Some (src, payload) ->
          m := { !m with acc = !m.acc +. Mpi.str_f64 payload; got = !m.got + 1; idle = src :: !m.idle };
          progressed := true
        | None -> ()
      done;
      let m2 = ref !m in
      List.iter
        (fun engine ->
          if !m2.next < !m2.ntasks then begin
            Mpi.send comm ~dst:engine ~tag:'t' (Mpi.f64_str (float_of_int !m2.next));
            m2 :=
              { !m2 with next = !m2.next + 1; idle = List.filter (fun e -> e <> engine) !m2.idle }
          end)
        !m2.idle;
      Mpi.progress ctx comm;
      let m = !m2 in
      if m.got >= m.ntasks then begin
        for dst = 1 to size - 1 do
          Mpi.send comm ~dst ~tag:'x' ""
        done;
        Mpi.progress ctx comm;
        let expected = ref 0. in
        for t = 0 to m.ntasks - 1 do
          expected := !expected +. task_value t
        done;
        Nas.K_done (m.acc, Float.abs (m.acc -. !expected) < 1e-9 *. !expected)
      end
      else Nas.K_wait (Controller m)
    | Engine -> (
      match Mpi.recv comm ~src:0 ~tag:'x' with
      | Some _ -> Nas.K_done (0., true)
      | None -> (
        match Mpi.recv comm ~src:0 ~tag:'t' with
        | Some payload ->
          let t = int_of_float (Mpi.str_f64 payload) in
          Mpi.send comm ~dst:0 ~tag:'r' (Mpi.f64_str (task_value t));
          Mpi.progress ctx comm;
          Nas.K_compute (Engine, 2e-3)
        | None ->
          Mpi.send comm ~dst:0 ~tag:'q' "";
          Mpi.progress ctx comm;
          Nas.K_wait Engine))
end

module Demo = Nas.Make (Demo_kernel)

let registered = ref false

let register () =
  if not !registered then begin
    registered := true;
    Simos.Program.register (module Shell : Simos.Program.S);
    Simos.Program.register (module Demo : Simos.Program.S)
  end
