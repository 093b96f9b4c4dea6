(* perfbench: the repository benchmark.

   One process runs one workload in a closed loop on one domain: every
   iteration builds a fresh cluster from the seed, drives it through the
   public API (Simos.Cluster, Dmtcp.Api, Sched.Scheduler, Proxy) and waits
   for each call to return.  Two clocks are reported: host time spent
   running the simulator (wall_s, setup_s, peak_heap_mb) and simulated
   time (the sim_ metrics), which is deterministic per seed.

   --trace 0 times iterations with tracing off and prints the end-to-end
   metrics; --trace 1 alternates untraced and traced iterations, attaches
   a bounded aggregating trace sink to the traced ones, replays the
   checkpoint images through the codec and store modules, and prints the
   per-layer metrics.  Every iteration is checked against a no-fault
   reference run on the same seed, and every iteration of a run must
   repeat the first one's simulated metrics and Trace.Metrics counters
   exactly.  The last stdout line is the JSON result; the exit code is 1
   when any check failed.  See README.md for the metric catalogue. *)

module Common = Harness.Common

let sprintf = Printf.sprintf
(* monotonic seconds; see perfbench_clock.c *)
external host_now : unit -> (float[@unboxed]) = "perfbench_now" "perfbench_now_unboxed"
[@@noalloc]

(* ------------------------------------------------------------------ *)
(* Calibrated host clock.

   The effective speed of a shared machine drifts (by up to 2x within
   tens of seconds on a 2-vCPU VM) and moves every host time alike.  So
   the clock interleaves a fixed probe — branchy, table-driven OCaml work
   like the simulator's own, using no repository code — at every reading
   and at least every [probe_every] raw seconds at the engine's safe
   points.  Each interval between two probes is scaled by
   [probe_nominal] / (mean of the two probe times): calibrated seconds
   are host seconds on a machine where the probe takes [probe_nominal].
   Probe time itself is excluded from both the calibrated and the raw
   totals.  (A pointer chase over a large array and an allocating
   hash-table loop were tried as probes too; on identical runs they
   tracked the simulator's slowdowns worse.) *)

module Clock = struct
  let probe_nominal = 0.003
  let probe_every = 0.25

  type op = Add of int | Mul of int | Xor of int | Skip

  let table =
    lazy
      (let h = Hashtbl.create 8192 in
       for i = 0 to 8191 do
         Hashtbl.replace h (i * 7919) (i land 255)
       done;
       h)

  let ops =
    lazy
      (Array.init 4096 (fun i ->
           match i land 3 with 0 -> Add i | 1 -> Mul (i lor 1) | 2 -> Xor i | _ -> Skip))

  let scratch = Array.make 4096 0

  (* Hash lookups, variant dispatch and a sort over data built once.
     Neither the probe, the clock state nor [host_now] allocates on the
     OCaml heap: probes run at host-time-dependent points, and
     allocating there would shift the collector's schedule from run to
     run. *)
  let probe () =
    let table = Lazy.force table and ops = Lazy.force ops in
    let t0 = host_now () in
    let acc = ref 0 in
    for i = 0 to 40_000 do
      acc := !acc + Hashtbl.find table ((i * 2654435761) lsr 7 land 8191 * 7919);
      match ops.(i land 4095) with
      | Add n -> acc := !acc + n
      | Mul n -> acc := !acc * n
      | Xor n -> acc := !acc lxor n
      | Skip -> ()
    done;
    for j = 0 to Array.length scratch - 1 do
      scratch.(j) <- ((j * 40503) + !acc) land 65535
    done;
    Array.sort compare scratch;
    ignore (Sys.opaque_identity !acc);
    host_now () -. t0

  (* last probe time, raw time the current interval started, calibrated
     and raw seconds up to then *)
  let st = Float.Array.make 4 0.
  let last_probe = 0 and mark = 1 and cal = 2 and raw = 3
  let log = Float.Array.make 100_000 0.
  let logged = ref 0

  let close_interval () =
    let dt = host_now () -. Float.Array.get st mark in
    let p = probe () in
    if !logged < Float.Array.length log then begin
      Float.Array.set log !logged p;
      incr logged
    end;
    Float.Array.set st cal
      (Float.Array.get st cal +. (dt *. probe_nominal /. ((Float.Array.get st last_probe +. p) /. 2.)));
    Float.Array.set st raw (Float.Array.get st raw +. dt);
    Float.Array.set st last_probe p;
    Float.Array.set st mark (host_now ())

  let start () =
    Float.Array.set st last_probe (probe ());
    Float.Array.set st mark (host_now ())

  (* (calibrated, raw) seconds so far; back-to-back readings (the end of
     one span and the start of the next) share one probe *)
  let read () =
    let dt = host_now () -. Float.Array.get st mark in
    if dt < 0.002 then
      ( Float.Array.get st cal +. (dt *. probe_nominal /. Float.Array.get st last_probe),
        Float.Array.get st raw +. dt )
    else begin
      close_interval ();
      (Float.Array.get st cal, Float.Array.get st raw)
    end

  (* a safe point inside a long phase *)
  let tick () = if host_now () -. Float.Array.get st mark >= probe_every then close_interval ()

  let median_probe () =
    let a = Float.Array.sub log 0 !logged in
    Float.Array.sort compare a;
    if !logged = 0 then 0. else Float.Array.get a (!logged / 2)

  let probes () = !logged
end

(* ------------------------------------------------------------------ *)
(* Phase spans *)

(* Trace.Metrics is write-only apart from its text snapshot, so counters
   are read back by parsing it. *)
let counters () =
  Trace.Metrics.snapshot_text ()
  |> String.split_on_char '\n'
  |> List.filter_map (fun line ->
         match String.index_opt line ' ' with
         | None -> None
         | Some i ->
           Some (String.sub line 0 i, String.trim (String.sub line i (String.length line - i))))

let counter snap name =
  match List.assoc_opt name snap with
  | Some v -> Option.value ~default:0. (float_of_string_opt v)
  | None -> 0.

let dispatches () = counter (counters ()) "sim.dispatches"

type span = {
  s_name : string;
  s_run : int;  (* iteration id *)
  s_t0 : float;  (* raw host clock *)
  s_t1 : float;
  s_cal : float;  (* calibrated duration *)
  s_words : float;  (* minor words allocated inside *)
  s_dispatches : float;  (* engine events dispatched inside *)
}

(* Phases partition an iteration: setup, then run / ckpt / restart /
   finish / verify, whose sum is the iteration's wall_s. *)
let phases = [ "setup"; "run"; "ckpt"; "restart"; "finish"; "verify" ]
let spans : span list ref = ref []
let run_id = ref 0

let timed name f =
  let d0 = dispatches () in
  let c0, _ = Clock.read () in
  let w0 = Gc.minor_words () in
  let t0 = host_now () in
  let r = f () in
  let t1 = host_now () in
  let w1 = Gc.minor_words () in
  let c1, _ = Clock.read () in
  spans :=
    {
      s_name = name;
      s_run = !run_id;
      s_t0 = t0;
      s_t1 = t1;
      s_cal = c1 -. c0;
      s_words = w1 -. w0;
      s_dispatches = dispatches () -. d0;
    }
    :: !spans;
  r

(* totals over every span of iteration [run] named [name] *)
let span_sum run name f =
  List.fold_left (fun acc s -> if s.s_run = run && s.s_name = name then acc +. f s else acc) 0. !spans

let span_dur run name = span_sum run name (fun s -> s.s_cal)
let span_words run name = span_sum run name (fun s -> s.s_words)
let span_dispatches run name = span_sum run name (fun s -> s.s_dispatches)

(* ------------------------------------------------------------------ *)
(* Bounded aggregating trace sink: per (category, name) event counts and
   span durations — the grouping of Trace.Query.stage_stats without
   buffering events. *)

module Agg = struct
  type t = {
    mutable events : int;
    counts : (string * string, int ref) Hashtbl.t;
    durations : (string * string, Util.Stats.t) Hashtbl.t;
  }

  let create () = { events = 0; counts = Hashtbl.create 64; durations = Hashtbl.create 64 }

  let sink t =
    {
      Trace.emit =
        (fun (ev : Trace.event) ->
          t.events <- t.events + 1;
          let key = (ev.Trace.cat, ev.Trace.name) in
          (match Hashtbl.find_opt t.counts key with
          | Some r -> incr r
          | None -> Hashtbl.add t.counts key (ref 1));
          match ev.Trace.kind with
          | Trace.Span d ->
            let s =
              match Hashtbl.find_opt t.durations key with
              | Some s -> s
              | None ->
                let s = Util.Stats.create () in
                Hashtbl.add t.durations key s;
                s
            in
            Util.Stats.add s d
          | Trace.Instant | Trace.Counter _ -> ());
    }

  let mean_duration t ~cat name =
    match Hashtbl.find_opt t.durations (cat, name) with
    | Some s when Util.Stats.count s > 0 -> Util.Stats.mean s
    | _ -> 0.

  let count_where t pred =
    Hashtbl.fold (fun (cat, name) r acc -> if pred cat name then acc + !r else acc) t.counts 0

  let lines t =
    Hashtbl.fold
      (fun (cat, name) r acc ->
        let dur =
          match Hashtbl.find_opt t.durations (cat, name) with
          | Some s -> sprintf " span_mean_s=%.9f" (Util.Stats.mean s)
          | None -> ""
        in
        sprintf "agg %s %s count=%d%s" cat name !r dur :: acc)
      t.counts []
    |> List.sort compare
end

(* ------------------------------------------------------------------ *)
(* Iteration outcome *)

type outcome = {
  o_attempted : int;  (* verdicts: 1 per cycle, one per job for sched-1k *)
  o_failed : int;
  o_why : string list;
  o_setup : float;  (* calibrated host seconds *)
  o_wall : float;
  o_wall_raw : float;  (* uncalibrated *)
  o_sim : (string * float) list;  (* every sim_ metric *)
  o_counters : (string * string) list;  (* Trace.Metrics at the verdict *)
  o_layer : (string * float) list;  (* layer values only the workload knows *)
  o_images : string list;  (* checkpoint images, kept only for replay *)
}

(* Wraps an iteration body: times set-up and the rest on the calibrated
   clock, and collects the verdict messages [fail] records. *)
let iteration ~setup ~body =
  let why = ref [] in
  let fail m = why := m :: !why in
  let c0, _ = Clock.read () in
  let env = timed "setup" setup in
  let c1, r1 = Clock.read () in
  let o = body env fail in
  let c2, r2 = Clock.read () in
  { o with o_why = List.rev !why @ o.o_why; o_setup = c1 -. c0; o_wall = c2 -. c1; o_wall_raw = r2 -. r1 }

let quantile xs q =
  match List.sort compare xs with
  | [] -> 0.
  | sorted ->
    let a = Array.of_list sorted in
    let pos = q *. float_of_int (Array.length a - 1) in
    let lo = int_of_float pos in
    let hi = min (Array.length a - 1) (lo + 1) in
    a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile xs 0.5

let read_file cl node path =
  match Simos.Vfs.lookup (Simos.Kernel.vfs (Simos.Cluster.kernel cl node)) path with
  | Some f -> Some (Simos.Vfs.read_all f)
  | None -> None

(* Advance the engine on a fixed 1 ms simulated grid until [pred] holds:
   the completion time then depends on simulated time only, never on how
   many events the simulator needed to get there. *)
let run_until cl ~limit pred =
  let eng = Simos.Cluster.engine cl in
  let deadline = Sim.Engine.now eng +. limit in
  while (not (pred ())) && Sim.Engine.now eng < deadline do
    Sim.Engine.run ~until:(Sim.Engine.now eng +. 1e-3) eng;
    Clock.tick ()
  done;
  pred ()

let advance cl dt =
  let until = Simos.Cluster.now cl +. dt in
  ignore (run_until cl ~limit:dt (fun () -> Simos.Cluster.now cl >= until))

(* Dmtcp.Api.checkpoint_now and await_restart advance the engine in 50 ms
   slices, which would bill up to 50 ms of application compute to the
   checkpoint and restart spans; these waits use the same completion
   tests on the 1 ms grid. *)
let checkpoint cl rt =
  let since = Simos.Cluster.now cl in
  Dmtcp.Api.checkpoint rt;
  let completed () =
    match Dmtcp.Runtime.last_completed_ckpt rt with
    | Some i ->
      i.Dmtcp.Runtime.started >= since
      && i.Dmtcp.Runtime.finished > i.Dmtcp.Runtime.started
      && i.Dmtcp.Runtime.nprocs > 0
    | None -> false
  in
  if not (run_until cl ~limit:600. completed) then failwith "checkpoint timed out"

let restart cl rt script =
  Dmtcp.Api.restart rt script;
  let resumed () =
    let expected = Dmtcp.Runtime.restart_expected rt in
    expected > 0 && (Dmtcp.Runtime.restart_info rt).Dmtcp.Runtime.nprocs >= expected
  in
  if not (run_until cl ~limit:600. resumed) then failwith "restart timed out"

(* ------------------------------------------------------------------ *)
(* Cycle workloads: launch, then [cycles] times compute, checkpoint,
   kill and restart, then run to the VERIFIED line. *)

type cycle = {
  c_work : Common.workload;
  c_nodes : int;
  c_options : Dmtcp.Options.t;
  c_short : string;  (* result file /result/<short>-<base_port> on node 0 *)
  c_ckpt_every : float;  (* simulated compute seconds before each checkpoint *)
  c_key_rounds : int;  (* keys x rounds x ranks (IS), for apps.words_per_key *)
}

let cycles = 3
let result_path c = sprintf "/result/%s-%d" c.c_short Common.base_port

let boot c ~seed =
  Apps.Registry.register_all ();
  Proxy.Accounting.reset ~base_port:Common.base_port;
  let cl = Simos.Cluster.create ~seed:(Int64.of_int seed) ~nodes:c.c_nodes () in
  let rt = Dmtcp.Api.install cl ~options:c.c_options () in
  let w = c.c_work in
  let launch_ranks extra =
    for rank = 0 to w.Common.w_nprocs - 1 do
      ignore
        (Dmtcp.Api.launch rt ~node:(rank / w.Common.w_rpn) ~prog:w.Common.w_prog
           ~argv:
             (List.map string_of_int
                [ rank; w.Common.w_nprocs; Common.base_port; w.Common.w_rpn; 0; 0 ]
             @ extra))
    done
  in
  (match w.Common.w_kind with
  | Common.Direct -> launch_ranks w.Common.w_extra
  | Common.Proxy ->
    List.iter
      (fun node -> Proxy.Daemon.spawn_on cl ~node ~base_port:Common.base_port ~rpn:w.Common.w_rpn)
      (Proxy.Daemon.nodes_of_job ~size:w.Common.w_nprocs ~rpn:w.Common.w_rpn);
    launch_ranks ("proxy" :: w.Common.w_extra)
  | Common.Openmpi ->
    ignore
      (Dmtcp.Api.launch rt ~node:0 ~prog:"mpi:mpirun"
         ~argv:
           ([
              "openmpi";
              string_of_int w.Common.w_nprocs;
              string_of_int w.Common.w_rpn;
              string_of_int Common.base_port;
              w.Common.w_prog;
            ]
           @ w.Common.w_extra))
  | Common.Mpich2 | Common.Plain -> invalid_arg "perfbench: unsupported runtime kind");
  (* set-up ends when every process is registered, to the millisecond *)
  let want = Common.expected_processes w in
  if
    not
      (run_until cl ~limit:60. (fun () ->
           List.length (Dmtcp.Runtime.hijacked_processes rt) >= want))
  then failwith (sprintf "%s: processes never registered" w.Common.w_name);
  { Common.cl; rt }

let cycle_reference c ~seed =
  let env = boot c ~seed in
  let cl = env.Common.cl in
  if not (run_until cl ~limit:600. (fun () -> read_file cl 0 (result_path c) <> None)) then
    failwith (sprintf "%s: no-fault reference run produced no result" c.c_work.Common.w_name);
  Option.get (read_file cl 0 (result_path c))

let cycle_iteration c ~seed ~reference ~keep_images =
  iteration
    ~setup:(fun () -> boot c ~seed)
    ~body:(fun env fail ->
      let cl = env.Common.cl and rt = env.Common.rt in
      let cycle () =
        timed "run" (fun () -> advance cl c.c_ckpt_every);
        let ckpt_s, images =
          timed "ckpt" (fun () ->
              checkpoint cl rt;
              ( Dmtcp.Api.last_checkpoint_seconds rt,
                (Dmtcp.Runtime.ckpt_info rt).Dmtcp.Runtime.images ))
        in
        let expected = Common.expected_processes c.c_work in
        if List.length images <> expected then
          fail (sprintf "checkpoint imaged %d processes, expected %d" (List.length images) expected);
        let restart_s =
          timed "restart" (fun () ->
              let script = Dmtcp.Api.restart_script rt in
              Dmtcp.Api.kill_computation rt;
              restart cl rt script;
              Dmtcp.Api.last_restart_seconds rt)
        in
        (ckpt_s, restart_s, images)
      in
      let rounds = List.init cycles (fun _ -> cycle ()) in
      let _, _, images = List.nth rounds (cycles - 1) in
      timed "finish" (fun () ->
          ignore (run_until cl ~limit:600. (fun () -> read_file cl 0 (result_path c) <> None)));
      let makespan = Simos.Cluster.now cl in
      timed "verify" (fun () ->
          match read_file cl 0 (result_path c) with
          | None -> fail "no result file after restart"
          | Some out ->
            let want = String.uppercase_ascii c.c_short ^ " VERIFIED" in
            if not (String.starts_with ~prefix:want out) then fail (sprintf "result %S lacks %S" out want);
            if out <> reference then
              fail (sprintf "result %S differs from no-fault reference %S" out reference));
      let sent, delivered, retained = Proxy.Accounting.totals ~base_port:Common.base_port in
      let key_words = span_words !run_id "run" +. span_words !run_id "finish" in
      let ratio a b = if b > 0 then float_of_int a /. float_of_int b else 0. in
      {
        o_attempted = 1;
        o_failed = 0;
        o_why = [];
        o_setup = 0.;
        o_wall = 0.;
        o_wall_raw = 0.;
        o_sim =
          [
            ("sim_makespan_s", makespan);
            ("sim_ckpt_s", median (List.map (fun (c, _, _) -> c) rounds));
            ("sim_restart_s", median (List.map (fun (_, r, _) -> r) rounds));
            ("sim_image_mb", float_of_int (fst (Dmtcp.Api.last_checkpoint_bytes rt)) /. 1e6);
            (* one job per cycle workload: its turnaround is the makespan *)
            ("sim_turnaround_p50_s", makespan);
            ("sim_turnaround_p99_s", makespan);
          ];
        o_counters = counters ();
        o_layer =
          [
            ("apps.words_per_key", key_words *. ratio 1 c.c_key_rounds);
            ("proxy.sent", float_of_int sent);
            ("proxy.delivered", float_of_int delivered);
            ("proxy.retained", float_of_int retained);
            ("proxy.delivered_ratio", ratio delivered sent);
          ];
        o_images =
          (if keep_images then
             List.filter_map (fun (node, path) -> read_file cl node path) images
           else []);
      })
  |> fun o -> { o with o_failed = (if o.o_why = [] then 0 else 1) }

(* ------------------------------------------------------------------ *)
(* sched-1k: a thousand counter jobs through preemption, node failure and
   drain on 64 nodes, with store-backed incremental interval checkpoints
   — the shape of Chaos.Sched_demo1k. *)

module Demo = Chaos.Sched_demo1k

let sched_jobs = 1000
let sched_nodes = 64
let ckpt_stages = [ "ckpt/suspend"; "ckpt/elect"; "ckpt/drain"; "ckpt/write"; "ckpt/refill" ]
let restart_stages = [ "restart/files"; "restart/reconnect"; "restart/mem"; "restart/refill" ]

(* The job mix: the demo's staggered counter lengths (0.60-0.96 s), in
   an order shuffled by the seed, so every seed submits the same total
   work but places, preempts and fails different jobs. *)
let sched_targets ~seed =
  let rng = Util.Rng.create (Int64.of_int (seed + 0x5EDB)) in
  let a = Array.init sched_jobs (fun i -> 600 + (10 * (i mod 37))) in
  for i = sched_jobs - 1 downto 1 do
    let j = Util.Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let sched_boot ~seed ~faults =
  Chaos.Progs.ensure_registered ();
  let cl =
    Simos.Cluster.create ~seed:(Int64.of_int seed) ~cores_per_node:2 ~nodes:sched_nodes ()
  in
  let rt = Dmtcp.Api.install cl ~options:(Demo.options ()) () in
  let sched = Sched.Scheduler.create ~ckpt_interval:0.25 cl rt in
  Array.iteri
    (fun i target ->
      ignore
        (Sched.Scheduler.submit sched
           (Demo.counter_spec ~name:(sprintf "j%04d" i) ~nodes:1 ~priority:1 ~target)))
    (sched_targets ~seed);
  let at time f = ignore (Sim.Engine.schedule_at (Simos.Cluster.engine cl) ~time f) in
  at Demo.preempt_at (fun () ->
      for i = 0 to 3 do
        ignore
          (Sched.Scheduler.submit sched
             (Demo.counter_spec ~name:(sprintf "pre%d" i) ~nodes:(sched_nodes / 8) ~priority:5
                ~target:800))
      done);
  if faults then begin
    at Demo.fail_at (fun () ->
        Option.iter (Sched.Scheduler.fail_node sched) (Demo.victim_node sched));
    at Demo.drain_at (fun () -> Option.iter (Sched.Scheduler.drain sched) (Demo.victim_node sched))
  end;
  ({ Common.cl; rt }, sched)

let sched_result env sched unfinished =
  {
    Demo.k_env = env;
    k_sched = sched;
    k_unfinished = unfinished;
    k_outputs =
      List.map
        (fun (j : Sched.Job.t) -> (j.Sched.Job.id, j.Sched.Job.outputs))
        (Sched.Scheduler.jobs sched);
  }

let sched_reference ~seed =
  let env, sched = sched_boot ~seed ~faults:false in
  let unfinished = Sched.Scheduler.run ~until:3600. sched in
  if unfinished > 0 then
    failwith (sprintf "sched-1k: reference left %d job(s) unfinished" unfinished);
  sched_result env sched unfinished

let stage_sum rt names =
  let stats = Dmtcp.Runtime.stage_stats rt in
  List.fold_left
    (fun acc name ->
      match List.assoc_opt name stats with
      | Some s when Util.Stats.count s > 0 -> acc +. Util.Stats.mean s
      | _ -> acc)
    0. names

let sched_iteration ~seed ~reference ~keep_images =
  iteration
    ~setup:(fun () -> sched_boot ~seed ~faults:true)
    ~body:(fun (env, sched) _ ->
      let cl = env.Common.cl in
      (* Scheduler.run in 50 ms slices, for the clock's safe points, then
         on to quiescence *)
      let unfinished =
        timed "run" (fun () ->
            while (not (Sched.Scheduler.all_done sched)) && Simos.Cluster.now cl < 3600. do
              ignore (Sched.Scheduler.run ~until:(Simos.Cluster.now cl +. 0.05) sched);
              Clock.tick ()
            done;
            Sched.Scheduler.run ~until:3600. sched)
      in
      let jobs = Sched.Scheduler.jobs sched in
      let failed_jobs, why =
        timed "verify" (fun () ->
            let wrong (j : Sched.Job.t) =
              j.Sched.Job.phase <> Sched.Job.Done
              || List.assoc_opt j.Sched.Job.id reference.Demo.k_outputs <> Some j.Sched.Job.outputs
            in
            ( List.length (List.filter wrong jobs),
              Demo.check ~reference (sched_result env sched unfinished) ))
      in
      let since_submit f = List.map (fun (j : Sched.Job.t) -> f j -. j.Sched.Job.submitted) jobs in
      let turnaround = since_submit (fun j -> j.Sched.Job.done_at) in
      let queue_wait = since_submit (fun j -> j.Sched.Job.placed_at) in
      let rt = env.Common.rt in
      let store = Dmtcp.Runtime.store rt in
      let image_bytes =
        match store with
        | Some st ->
          let s = Store.stats st in
          s.Store.bytes_written + s.Store.bytes_deduped
        | None -> 0
      in
      let attempted = List.length jobs in
      let count f = float_of_int (f sched) in
      {
        o_attempted = attempted;
        (* a run-level violation with every job intact still fails one verdict *)
        o_failed = min attempted (max failed_jobs (if why = [] then 0 else 1));
        o_why = why;
        o_setup = 0.;
        o_wall = 0.;
        o_wall_raw = 0.;
        o_sim =
          [
            ("sim_makespan_s", Sched.Scheduler.makespan sched);
            (* mean checkpoint and restart: the stage means summed *)
            ("sim_ckpt_s", stage_sum rt ckpt_stages);
            ("sim_restart_s", stage_sum rt restart_stages);
            ("sim_image_mb", float_of_int image_bytes /. 1e6);
            ("sim_turnaround_p50_s", quantile turnaround 0.5);
            ("sim_turnaround_p99_s", quantile turnaround 0.99);
          ];
        o_counters = counters ();
        o_layer =
          [
            ("sched.preemptions", count Sched.Scheduler.preemptions);
            ("sched.restarts", count Sched.Scheduler.restarts);
            ("sched.relaunches", count Sched.Scheduler.relaunches);
            ("sched.lost_work_s", Sched.Scheduler.total_lost_work sched);
            ("sched.queue_wait_p50_s", quantile queue_wait 0.5);
            ("sched.peak_ops_inflight", count Sched.Scheduler.peak_ops_inflight);
            ("sched.compactions", count Sched.Scheduler.compactions);
          ];
        o_images =
          (match store with
          | Some st when keep_images ->
            (* a fixed sample of the catalog, in name order *)
            Store.manifests st
            |> List.map (fun m -> m.Store.m_name)
            |> List.sort compare
            |> List.filteri (fun i _ -> i < 64)
            |> List.filter_map (fun name -> Store.peek st ~name)
          | _ -> []);
      })

(* ------------------------------------------------------------------ *)
(* The workloads *)

(* [w_prepare seed] makes the no-fault reference (outside the timed
   window and outside setup_s) and returns the timed iteration *)
type workload = { w_name : string; w_prepare : int -> keep_images:bool -> outcome }

let mpi_job ~name ~kind ~prog ~nprocs ~rpn ~extra =
  {
    Common.w_name = name;
    w_kind = kind;
    w_prog = prog;
    w_nprocs = nprocs;
    w_rpn = rpn;
    w_extra = extra;
    w_warmup = 0.;
  }

let is_keys = 20_000
let is_rounds = 16
let is_ranks = 8

let cycle_workloads =
  [
    {
      c_work =
        mpi_job ~name:"is-ckpt" ~kind:Common.Direct ~prog:"nas:is" ~nprocs:is_ranks ~rpn:2
          ~extra:[ string_of_int is_keys; string_of_int is_rounds ];
      c_nodes = 4;
      c_options = Dmtcp.Options.default;
      c_short = "is";
      c_ckpt_every = 0.01;
      c_key_rounds = is_keys * is_rounds * is_ranks;
    };
    {
      c_work =
        mpi_job ~name:"mg-net" ~kind:Common.Openmpi ~prog:"nas:mg" ~nprocs:4 ~rpn:1
          ~extra:[ "4000" ];
      c_nodes = 4;
      c_options = Dmtcp.Options.default;
      c_short = "mg";
      c_ckpt_every = 0.8;
      c_key_rounds = 0;
    };
    {
      c_work =
        mpi_job ~name:"stencil-proxy" ~kind:Common.Proxy ~prog:Apps.Stencil.stencil_prog
          ~nprocs:8 ~rpn:2 ~extra:[ "1024"; "8"; "500"; "0.002" ];
      c_nodes = 4;
      c_options =
        { Dmtcp.Options.default with Dmtcp.Options.plugins = [ "ext-sock"; "mpi-proxy" ] };
      c_short = "stencil";
      c_ckpt_every = 0.2;
      c_key_rounds = 0;
    };
  ]

let workloads =
  List.map
    (fun c ->
      {
        w_name = c.c_work.Common.w_name;
        w_prepare =
          (fun seed ->
            let reference = cycle_reference c ~seed in
            cycle_iteration c ~seed ~reference);
      })
    cycle_workloads
  @ [
      {
        w_name = "sched-1k";
        w_prepare =
          (fun seed ->
            let reference = sched_reference ~seed in
            sched_iteration ~seed ~reference);
      };
    ]

(* ------------------------------------------------------------------ *)
(* Replay the run's own checkpoint images through the codecs and the
   store, timing each call over all images on the calibrated clock and
   insisting every roundtrip returns identical bytes. *)

(* Everything the MTCP layer itself serializes: the address space bytes,
   process metadata, and each thread's program name and wait state.  A
   thread's program state is left out: programs own that codec, and some
   advance it on purpose at every encode (a proxied MPI rank's image
   restores into the next connection epoch), so it never re-encodes to
   the same bytes. *)
let mtcp_fingerprint (m : Mtcp.Image.t) =
  let w = Util.Codec.Writer.create () in
  Mem.Address_space.encode w m.Mtcp.Image.space;
  ( Util.Codec.Writer.contents w,
    (m.Mtcp.Image.cmdline, m.Mtcp.Image.env, m.Mtcp.Image.sigtable, m.Mtcp.Image.pending_signals),
    List.map
      (fun (th : Mtcp.Image.thread_image) ->
        (Simos.Program.name_of th.Mtcp.Image.ti_inst, th.Mtcp.Image.ti_wait))
      m.Mtcp.Image.threads )

let replay images =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt in
  let timings = ref [] in
  let bytes xs = List.fold_left (fun acc s -> acc + String.length s) 0 xs in
  (* [f] over all inputs, billed per byte of [per] *)
  let timed_map name ~per f xs =
    let c0, _ = Clock.read () in
    let ys = List.map f xs in
    let c1, _ = Clock.read () in
    let n = bytes per in
    timings := (name, if n > 0 then (c1 -. c0) *. 1e9 /. float_of_int n else 0.) :: !timings;
    ys
  in
  let check what xs ys = List.iteri (fun i (x, y) -> if x <> y then err "image %d: %s differs" i what) (List.combine xs ys) in
  let decoded = timed_map "dmtcp.image_decode_ns_per_byte" ~per:images Dmtcp.Ckpt_image.decode images in
  check "Ckpt_image decode->encode" images (List.map Dmtcp.Ckpt_image.encode decoded);
  let blobs =
    List.filter_map
      (fun (i : Dmtcp.Ckpt_image.t) ->
        if i.Dmtcp.Ckpt_image.delta_base = None then Some i.Dmtcp.Ckpt_image.mtcp_blob else None)
      decoded
  in
  let raws = List.map Compress.Container.unpack blobs in
  ignore (timed_map "compress.unpack_ns_per_byte" ~per:raws Compress.Container.unpack blobs);
  let packed =
    timed_map "compress.pack_ns_per_byte" ~per:raws
      (fun (blob, raw) -> Compress.Container.pack ~algo:(Compress.Container.algo_of blob) raw)
      (List.combine blobs raws)
  in
  check "Container unpack->pack" blobs packed;
  let mtcps = timed_map "mtcp.decode_ns_per_byte" ~per:raws Mtcp.Image.decode blobs in
  let reencoded =
    timed_map "mtcp.encode_ns_per_byte" ~per:raws
      (fun (blob, m) -> Mtcp.Image.encode ~algo:(Compress.Container.algo_of blob) m)
      (List.combine blobs mtcps)
  in
  check "Mtcp.Image decode->encode->decode"
    (List.map mtcp_fingerprint mtcps)
    (List.map (fun b -> mtcp_fingerprint (Mtcp.Image.decode b)) reencoded);
  (* a private three-node store: put every image, fetch each back *)
  let cl = Simos.Cluster.create ~nodes:3 () in
  let store =
    Store.create ~engine:(Simos.Cluster.engine cl) ~targets:(Array.init 3 (Simos.Cluster.target cl)) ()
  in
  let names = List.mapi (fun i _ -> sprintf "replay-%d" i) images in
  List.iter2
    (fun name img ->
      ignore
        (Store.put store ~node:0 ~lineage:name ~generation:1 ~name ~program:"replay"
           ~sim_bytes:(String.length img) ~chunks:(Dmtcp.Ckpt_image.chunk img)))
    names images;
  let fetched =
    timed_map "store.fetch_ns_per_byte" ~per:images
      (fun name -> Option.fold ~none:"" ~some:fst (Store.fetch store ~node:1 ~name))
      names
  in
  check "Store put->fetch" images fetched;
  (List.rev !timings, List.rev !errors)

(* ------------------------------------------------------------------ *)
(* Metric catalogue *)

let end_to_end =
  [
    ("wall_s", "s");
    ("setup_s", "s");
    ("peak_heap_mb", "MB");
    ("sim_makespan_s", "s");
    ("sim_ckpt_s", "s");
    ("sim_restart_s", "s");
    ("sim_image_mb", "MB");
    ("sim_turnaround_p50_s", "s");
    ("sim_turnaround_p99_s", "s");
  ]

let plugin_sites =
  [
    "fd-capture";
    "drain-select";
    "image-write";
    "restart-discovery";
    "restart-rearrange";
    "coord-ckpt-begin";
    "coord-ckpt-end";
  ]

let per_layer =
  [
    ("apps.compute_host_s", "s");
    ("apps.compute_mwords", "Mwords");
    ("apps.words_per_key", "words");
    ("sim.dispatches", "count");
    ("sim.host_ns_per_dispatch", "ns");
    ("sim.sim_s_per_host_s", "ratio");
    ("net.segments_sent", "count");
    ("net.bytes_sent", "bytes");
    ("net.segments_dropped", "count");
    ("net.refill_bytes", "bytes");
    ("kernel.spawns", "count");
    ("kernel.fd_opens", "count");
    ("kernel.read_bytes", "bytes");
    ("kernel.write_bytes", "bytes");
    ("kernel.page_faults", "count");
    ("dmtcp.ckpt_host_s", "s");
    ("dmtcp.ckpt_mwords", "Mwords");
    ("dmtcp.restart_host_s", "s");
    ("dmtcp.restart_mwords", "Mwords");
    ("dmtcp.drained_bytes", "bytes");
    ("dmtcp.delta_bytes", "bytes");
    ("dmtcp.image_decode_ns_per_byte", "ns");
    ("dmtcp.stage.suspend_s", "s");
    ("dmtcp.stage.elect_s", "s");
    ("dmtcp.stage.drain_s", "s");
    ("dmtcp.stage.write_s", "s");
    ("dmtcp.stage.refill_s", "s");
    ("dmtcp.stage.restart_files_s", "s");
    ("dmtcp.stage.restart_reconnect_s", "s");
    ("dmtcp.stage.restart_mem_s", "s");
    ("dmtcp.stage.restart_refill_s", "s");
    ("mtcp.decode_ns_per_byte", "ns");
    ("mtcp.encode_ns_per_byte", "ns");
    ("compress.deflate.bytes_in", "bytes");
    ("compress.deflate.bytes_out", "bytes");
    ("compress.ratio", "ratio");
    ("compress.blocks.stored", "ratio");
    ("compress.pack_ns_per_byte", "ns");
    ("compress.unpack_ns_per_byte", "ns");
    ("storage.write_bytes", "bytes");
    ("storage.read_bytes", "bytes");
    ("storage.write_busy_s", "s");
    ("storage.read_busy_s", "s");
    ("store.bytes_written", "bytes");
    ("store.bytes_deduped", "bytes");
    ("store.dedup_ratio", "ratio");
    ("store.blocks_replicated", "count");
    ("store.blocks_gcd", "count");
    ("store.fetch_ns_per_byte", "ns");
    ("sched.preemptions", "count");
    ("sched.restarts", "count");
    ("sched.relaunches", "count");
    ("sched.lost_work_s", "s");
    ("sched.queue_wait_p50_s", "s");
    ("sched.peak_ops_inflight", "count");
    ("sched.compactions", "count");
    ("proxy.sent", "bytes");
    ("proxy.delivered", "bytes");
    ("proxy.retained", "bytes");
    ("proxy.delivered_ratio", "ratio");
    ("plugin.spans", "count");
  ]
  @ List.map (fun site -> ("plugin.spans." ^ site, "count")) plugin_sites
  @ [
      ("plugin.spans.stage", "count");
      ("gc.minor_mwords", "Mwords");
      ("gc.major_collections", "count");
      ("trace.events", "count");
      ("trace.overhead_frac", "ratio");
      ("host.calibration_s", "s");
      ("host.wall_raw_s", "s");
    ]
  @ List.map (fun p -> ("phase." ^ p ^ "_s", "s")) phases
  @ [ ("phase.sum_frac", "ratio") ]

(* Per-layer values of one traced iteration; host times are calibrated. *)
let layer_values (o : outcome) ~run ~agg ~gc_major =
  let c = counter o.o_counters in
  let ratio a b = if b > 0. then a /. b else 0. in
  let sum f names = List.fold_left (fun acc n -> acc +. f run n) 0. names in
  let compute = [ "run"; "finish" ] in
  let compute_s = sum span_dur compute in
  let blocks = c "compress.blocks.stored" +. c "compress.blocks.rle" +. c "compress.blocks.deflate" in
  let stage name = Agg.mean_duration agg ~cat:"dmtcp" name in
  let plugin_spans pred =
    float_of_int (Agg.count_where agg (fun cat name -> cat = "plugin" && pred (Filename.basename name)))
  in
  [
    ("apps.compute_host_s", compute_s);
    ("apps.compute_mwords", sum span_words compute /. 1e6);
    ("sim.dispatches", c "sim.dispatches");
    ("sim.host_ns_per_dispatch", ratio (compute_s *. 1e9) (sum span_dispatches compute));
    ("sim.sim_s_per_host_s", ratio (List.assoc "sim_makespan_s" o.o_sim) o.o_wall);
    ("dmtcp.ckpt_host_s", span_dur run "ckpt");
    ("dmtcp.ckpt_mwords", span_words run "ckpt" /. 1e6);
    ("dmtcp.restart_host_s", span_dur run "restart");
    ("dmtcp.restart_mwords", span_words run "restart" /. 1e6);
    ("dmtcp.stage.suspend_s", stage "ckpt/suspend");
    ("dmtcp.stage.elect_s", stage "ckpt/elect");
    ("dmtcp.stage.drain_s", stage "ckpt/drain");
    ("dmtcp.stage.write_s", stage "ckpt/write");
    ("dmtcp.stage.refill_s", stage "ckpt/refill");
    ("dmtcp.stage.restart_files_s", stage "restart/files");
    ("dmtcp.stage.restart_reconnect_s", stage "restart/reconnect");
    ("dmtcp.stage.restart_mem_s", stage "restart/mem");
    ("dmtcp.stage.restart_refill_s", stage "restart/refill");
    ("compress.ratio", ratio (c "compress.deflate.bytes_out") (c "compress.deflate.bytes_in"));
    ("compress.blocks.stored", ratio (c "compress.blocks.stored") blocks);
    ("storage.write_busy_s", c "storage.write_seconds");
    ("storage.read_busy_s", c "storage.read_seconds");
    ( "store.dedup_ratio",
      ratio (c "store.bytes_deduped") (c "store.bytes_written" +. c "store.bytes_deduped") );
    ("plugin.spans", plugin_spans (fun _ -> true));
    ("plugin.spans.stage", plugin_spans (fun site -> not (List.mem site plugin_sites)));
    ("gc.minor_mwords", sum span_words phases /. 1e6);
    ("gc.major_collections", gc_major);
    ("trace.events", float_of_int agg.Agg.events);
    ("phase.sum_frac", ratio (sum span_dur (List.tl phases)) o.o_wall);
  ]
  @ List.map (fun site -> ("plugin.spans." ^ site, plugin_spans (( = ) site))) plugin_sites
  @ List.map (fun p -> ("phase." ^ p ^ "_s", span_dur run p)) phases
  @ o.o_layer
  (* the remaining layers are the always-on counters, read as is *)
  @ List.filter_map
      (fun (name, _) -> Option.map (fun _ -> (name, c name)) (List.assoc_opt name o.o_counters))
      per_layer

(* ------------------------------------------------------------------ *)
(* Driver *)

let out_dir = Filename.concat "perfbench" "out"

let write_trace_file ~workload ~seed lines =
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let path = Filename.concat out_dir (sprintf "trace-%s-%d.txt" workload seed) in
  let oc = open_out path in
  List.iter (fun l -> output_string oc (l ^ "\n")) lines;
  close_out oc;
  path

let span_lines () =
  List.rev !spans
  |> List.map (fun s ->
         sprintf
           "span run=%d name=%s parent=%s host_start=%.6f host_end=%.6f calibrated_s=%.6f \
            minor_words=%.0f dispatches=%.0f"
           s.s_run s.s_name
           (if s.s_name = "setup" then "iteration" else "wall")
           s.s_t0 s.s_t1 s.s_cal s.s_words s.s_dispatches)

let json_number v =
  if Float.is_finite v then
    let s = sprintf "%.17g" v in
    if String.contains s '.' || String.contains s 'e' then s else s ^ ".0"
  else "0.0"

let print_result ~correct ~attempted ~failed metrics =
  let body =
    List.map
      (fun (name, unit_, v) -> sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit_)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" correct
    attempted failed (String.concat ", " body)

let usage () =
  prerr_endline
    "usage: perfbench --workload <is-ckpt|mg-net|sched-1k|stencil-proxy> --seed N --seconds S \
     --trace 0|1";
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " workload name");
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_int seconds, " measuring time");
      ("--trace", Arg.Set_int trace, " 1 = traced run with per-layer metrics");
    ]
    (fun _ -> usage ())
    "perfbench";
  let w =
    match List.find_opt (fun w -> w.w_name = !workload) workloads with
    | Some w -> w
    | None -> usage ()
  in
  let seed = !seed and traced = !trace = 1 in
  let budget = float_of_int !seconds in
  Clock.start ();
  let iterate = w.w_prepare seed in
  let outcomes = ref [] and why = ref [] in
  let problem fmt = Printf.ksprintf (fun m -> why := m :: !why) fmt in
  (* one iteration: its outcome and its major collections *)
  let one ~agg =
    incr run_id;
    Trace.Metrics.reset ();
    Gc.compact ();
    let major0 = (Gc.quick_stat ()).Gc.major_collections in
    let o =
      match agg with
      | None -> iterate ~keep_images:false
      | Some a -> Trace.with_sink (Agg.sink a) (fun () -> iterate ~keep_images:true)
    in
    let major = float_of_int ((Gc.quick_stat ()).Gc.major_collections - major0) in
    List.iter (fun m -> problem "run %d: %s" !run_id m) o.o_why;
    (* determinism: every iteration repeats the first one exactly *)
    (match List.rev !outcomes with
    | first :: _ ->
      if first.o_sim <> o.o_sim then problem "run %d: sim_ metrics differ from run 1" !run_id;
      if first.o_counters <> o.o_counters then
        problem "run %d: Trace.Metrics counters differ from run 1" !run_id
    | [] -> ());
    outcomes := o :: !outcomes;
    (o, major)
  in
  let t_start = host_now () in
  let enough n =
    let elapsed = host_now () -. t_start in
    (n >= 3 && elapsed >= budget) || (n >= 1 && elapsed >= 2. *. budget)
  in
  (* untraced iterations, each followed by a traced one under --trace 1 *)
  let rec loop n acc =
    if enough n then List.rev acc
    else
      let u, _ = one ~agg:None in
      let t =
        if traced then begin
          let agg = Agg.create () in
          let t, major = one ~agg:(Some agg) in
          Some (t, !run_id, agg, major)
        end
        else None
      in
      loop (n + 1) ((u, t) :: acc)
  in
  let iters =
    try loop 0 []
    with e ->
      (* a run that dies (a restart that never completes, a corrupt image)
         is one more failed verdict, reported like any other *)
      let os = !outcomes in
      Printf.printf "CHECK FAILED: run %d raised %s\n" !run_id (Printexc.to_string e);
      print_result ~correct:false
        ~attempted:(List.fold_left (fun acc o -> acc + o.o_attempted) 1 os)
        ~failed:(List.fold_left (fun acc o -> acc + o.o_failed) 1 os)
        [];
      exit 1
  in
  let untraced = List.map fst iters and traced_runs = List.filter_map snd iters in
  let med_of os f = median (List.map f os) in
  let raw_wall = med_of untraced (fun o -> o.o_wall_raw) in
  let metrics =
    if not traced then begin
      let heap_mb =
        float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. float_of_int (Sys.word_size / 8) /. 1e6
      in
      [
        ("wall_s", med_of untraced (fun o -> o.o_wall));
        ("setup_s", med_of untraced (fun o -> o.o_setup));
        ("peak_heap_mb", heap_mb);
      ]
      @ List.map
          (fun (name, _) -> (name, med_of untraced (fun o -> List.assoc name o.o_sim)))
          (List.hd untraced).o_sim
    end
    else begin
      let values =
        List.map (fun (t, run, agg, major) -> layer_values t ~run ~agg ~gc_major:major) traced_runs
      in
      let last, run, agg, _ = List.nth traced_runs (List.length traced_runs - 1) in
      let replayed, errors = replay last.o_images in
      List.iter (fun e -> problem "replay: %s" e) errors;
      List.iter
        (fun vs ->
          let frac = List.assoc "phase.sum_frac" vs in
          if Float.abs (frac -. 1.) > 0.01 then problem "phase spans sum to %.4f of wall_s" frac)
        values;
      let traced_wall = med_of (List.map (fun (t, _, _, _) -> t) traced_runs) (fun o -> o.o_wall) in
      let path =
        write_trace_file ~workload:w.w_name ~seed
          (span_lines () @ Agg.lines agg
          @ List.map (fun (k, v) -> sprintf "replay %s %.6f" k v) replayed
          @ [ sprintf "traced run=%d" run ])
      in
      Printf.printf "trace written to %s\n" path;
      List.map
        (fun (name, _) ->
          let v =
            match name with
            | "trace.overhead_frac" -> (traced_wall /. med_of untraced (fun o -> o.o_wall)) -. 1.
            | "host.calibration_s" -> Clock.median_probe ()
            | "host.wall_raw_s" -> raw_wall
            | _ -> (
              match List.assoc_opt name replayed with
              | Some v -> v
              | None ->
                median (List.map (fun vs -> Option.value ~default:0. (List.assoc_opt name vs)) values))
          in
          (name, v))
        per_layer
    end
  in
  let catalogue = if traced then per_layer else end_to_end in
  let n = List.length untraced in
  let os = !outcomes in
  let attempted = List.fold_left (fun acc o -> acc + o.o_attempted) 0 os in
  let failed = List.fold_left (fun acc o -> acc + o.o_failed) 0 os in
  let why = List.rev !why in
  Printf.printf "workload %s  seed %d  iterations %d  %s\n" w.w_name seed (List.length os)
    (if traced then "traced" else "untraced");
  List.iter
    (fun (name, v) ->
      Printf.printf "  %-34s %-7s median %-14.6g n=%d\n" name (List.assoc name catalogue) v n)
    metrics;
  Printf.printf "  %-34s %-7s median %-14.6g n=%d\n" "wall_raw_s (uncalibrated)" "s" raw_wall n;
  Printf.printf "  %-34s %-7s median %-14.6g n=%d\n" "calibration probe" "s" (Clock.median_probe ())
    (Clock.probes ());
  Printf.printf "  %-34s %-7s %d/%d\n" "fail_frac" "ratio" failed attempted;
  List.iter (fun m -> Printf.printf "CHECK FAILED: %s\n" m) why;
  let correct = why = [] && failed = 0 in
  print_result ~correct ~attempted ~failed
    (List.map (fun (name, v) -> (name, List.assoc name catalogue, v)) metrics);
  exit (if correct then 0 else 1)
