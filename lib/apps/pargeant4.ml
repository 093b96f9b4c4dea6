module C = Util.Codec

let prog_name = "apps:pargeant4"
let mem_bytes = 30_000_000

(* the "physics": a deterministic per-event result, so the master can
   verify the farmed total exactly *)
let event_value e =
  let x = float_of_int e in
  Float.abs (sin (x *. 0.7)) +. (0.001 *. x)

let event_cost e = 4e-3 +. (3e-3 *. Float.abs (cos (float_of_int e)))

module K = struct
  type master = {
    nevents : int;
    repeats : int;  (* re-run the farm, for long-running scaling tests *)
    next : int;
    returned : int;
    acc : float;
    idle : int list;  (* workers awaiting a task *)
    outstanding : int;
  }

  type kstate =
    | Master of master
    | Worker of { current : int option; quit : bool }

  let prog_name = prog_name
  let short = "pargeant4"
  let mem_bytes = mem_bytes
  let mem_mix = Workload_mem.mostly_code
  let neighbors ~rank:_ ~size:_ = []  (* star to rank 0, as TOP-C does *)

  let kinit ~rank ~size:_ ~extra =
    let nevents, repeats =
      match extra with
      | [ n ] -> (int_of_string n, 1)
      | n :: rep :: _ -> (int_of_string n, int_of_string rep)
      | [] -> (600, 1)
    in
    if rank = 0 then
      Master { nevents; repeats; next = 0; returned = 0; acc = 0.; idle = []; outstanding = 0 }
    else Worker { current = None; quit = false }

  let codec_k =
    C.(
      variant (prog_name ^ " kernel") (fun master worker w -> function
        | Master { nevents; repeats; next; returned; acc; idle; outstanding } ->
          master w nevents repeats next returned acc idle outstanding
        | Worker { current; quit } -> worker w current quit)
      |> case 0
           [ uvarint; uvarint; uvarint; uvarint; f64; list uvarint; uvarint ]
           (fun nevents repeats next returned acc idle outstanding ->
             Master { nevents; repeats; next; returned; acc; idle; outstanding })
      |> case 1 [ option uvarint; bool ] (fun current quit -> Worker { current; quit })
      |> sealv)

  let kstep ctx comm k =
    let size = Mpi.size comm in
    match k with
    | Master m ->
      let m = ref m in
      (* collect worker requests and results *)
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
          m :=
            {
              !m with
              acc = !m.acc +. Mpi.str_f64 payload;
              returned = !m.returned + 1;
              outstanding = !m.outstanding - 1;
              idle = src :: !m.idle;
            };
          progressed := true
        | None -> ()
      done;
      (* hand out events to idle workers *)
      let m2 = ref !m in
      List.iter
        (fun worker ->
          if !m2.next < !m2.nevents then begin
            Mpi.send comm ~dst:worker ~tag:'t' (Mpi.f64_str (float_of_int !m2.next));
            m2 := { !m2 with next = !m2.next + 1; outstanding = !m2.outstanding + 1; idle = List.filter (fun w -> w <> worker) !m2.idle }
          end)
        !m2.idle;
      Mpi.progress ctx comm;
      let m = !m2 in
      if m.returned >= m.nevents && m.outstanding = 0 then begin
        let expected = ref 0. in
        for e = 0 to m.nevents - 1 do
          expected := !expected +. event_value e
        done;
        let ok = Float.abs (m.acc -. !expected) < 1e-9 *. Float.max 1. !expected in
        if ok && m.repeats > 1 then
          (* long-run mode: farm the events again *)
          Nas.K_compute
            ( Master
                { m with repeats = m.repeats - 1; next = 0; returned = 0; acc = 0.; outstanding = 0 },
              1e-5 )
        else begin
          (* tell workers to quit *)
          for dst = 1 to size - 1 do
            Mpi.send comm ~dst ~tag:'x' ""
          done;
          Mpi.progress ctx comm;
          Nas.K_done (m.acc, ok)
        end
      end
      else Nas.K_wait (Master m)
    | Worker wk -> (
      if wk.quit then Nas.K_done (0., true)
      else
        match wk.current with
        | Some e ->
          (* event simulated; return the partial result *)
          Mpi.send comm ~dst:0 ~tag:'r' (Mpi.f64_str (event_value e));
          Mpi.progress ctx comm;
          Nas.K_compute (Worker { current = None; quit = false }, 1e-6)
        | None -> (
          match Mpi.recv comm ~src:0 ~tag:'x' with
          | Some _ -> Nas.K_done (0., true)
          | None -> (
            match Mpi.recv comm ~src:0 ~tag:'t' with
            | Some payload ->
              let e = int_of_float (Mpi.str_f64 payload) in
              Nas.K_compute (Worker { current = Some e; quit = false }, event_cost e)
            | None ->
              (* announce availability exactly once per idle period *)
              Mpi.send comm ~dst:0 ~tag:'q' "";
              Mpi.progress ctx comm;
              Nas.K_wait (Worker wk))))
end

module P = Nas.Make (K)

let registered = ref false

let register () =
  if not !registered then begin
    registered := true;
    Simos.Program.register (module P : Simos.Program.S)
  end
