(* Benchmark harness: the deterministic ratio records CI gates on.

   Every record is a property of the code, not of the machine or the
   run — encoder output sizes, store and delta bytes, and simulated
   milliseconds from virtual-time scenarios — so CI regenerates them
   and diffs against the committed BENCH_micro.json baseline.  The
   paper's figures and tables come from `dmtcp_sim all [--quick]`; host
   cost per layer comes from perfbench/.

   BENCH_JSON=path writes the records as JSON, BENCH_ASSERT=1 enforces
   their bounds, BENCH_RESTORE_SWEEP=1 prints the restart sweep tables
   of EXPERIMENTS.md. *)

let hr title =
  Printf.printf "\n%s\n%s\n%s\n" (String.make 72 '=') title (String.make 72 '=');
  flush stdout

(* simulated seconds as whole milliseconds, the unit of the timing records *)
let ms s = int_of_float (Float.round (s *. 1000.))

let text_1mb =
  String.concat ""
    (List.init 4096 (fun i -> Printf.sprintf "log line %d: the quick brown fox %d\n" i (i mod 97)))

let random_1mb = Bytes.unsafe_to_string (Util.Rng.bytes (Util.Rng.create 42L) 1_000_000)

(* ------------------------------------------------------------------ *)
(* Compression shape: output sizes depend only on the encoder. *)

let ratio_records () =
  let rand64k = String.sub random_1mb 0 65536 in
  let zeros = String.make 1_000_000 '\000' in
  let pack algo s = String.length (Compress.Container.pack ~algo s) in
  [
    ("deflate-raw-text-1MB", String.length text_1mb, String.length (Compress.Deflate.compress text_1mb));
    ("deflate-raw-random-64KB", 65536, String.length (Compress.Deflate.compress rand64k));
    ("container-deflate-text-1MB", String.length text_1mb, pack Compress.Algo.Deflate text_1mb);
    ("container-deflate-random-64KB", 65536, pack Compress.Algo.Deflate rand64k);
    ("container-rle-zeros-1MB", 1_000_000, pack Compress.Algo.Rle zeros);
    ("container-null-random-64KB", 65536, pack Compress.Algo.Null rand64k);
  ]

(* Four local disks, one per node 0-3, behind a store on a fresh engine. *)
let bench_store ~replicas =
  let eng = Sim.Engine.create () in
  let targets =
    Array.init 4 (fun i ->
        let t = Storage.Target.local_disk eng () in
        Storage.Target.set_node t i;
        t)
  in
  (eng, Store.create ~replicas ~engine:eng ~targets ())

(* The 4 MiB (16 frames of 256 KiB) byte pattern the store records chunk. *)
let pattern () =
  Bytes.init (16 * 256 * 1024) (fun i ->
      Char.chr ((i * 131 + ((i lsr 8) * 17) + ((i lsr 16) * 211)) land 0xff))

(* The encoded Null-algo checkpoint image of process [hostid]-[pid]
   holding [body]. *)
let null_image ~hostid ~pid ~generation body =
  let n = String.length body in
  Dmtcp.Ckpt_image.encode
    {
      Dmtcp.Ckpt_image.upid = Dmtcp.Upid.make ~hostid ~pid ~generation;
      vpid = pid;
      parent_vpid = 0;
      program = "p:bench";
      fds = [];
      ptys = [];
      algo = Compress.Algo.Null;
      sizes = { Mtcp.Image.uncompressed = n; compressed = n; zero_bytes = 0 };
      mtcp_blob = Compress.Container.pack ~algo:Compress.Algo.Null body;
      delta_base = None;
    }

let put_image store ~lineage ~generation ~name bytes =
  ignore
    (Store.put store ~node:0 ~lineage ~generation ~name ~program:"p:bench"
       ~sim_bytes:(String.length bytes) ~chunks:(Dmtcp.Ckpt_image.chunk bytes))

(* Store dedup shape: two generations of a frame-chunked checkpoint
   image through the content-addressed store, generation 1 dirtying one
   256 KiB window out of 16.  Target bytes are a property of the chunker
   and the store, not of the machine, so they join the ratio baseline:
   gen 0 ships the whole image, gen 1 ships only the dirtied frame. *)
let store_records () =
  let _eng, store = bench_store ~replicas:2 in
  let put_gen g =
    let b = pattern () in
    if g > 0 then Bytes.fill b (5 * 256 * 1024) (256 * 1024) (Char.chr (g land 0xff));
    let bytes = null_image ~hostid:2 ~pid:41 ~generation:g (Bytes.to_string b) in
    put_image store ~lineage:"2-41" ~generation:g ~name:(Printf.sprintf "img-g%d" g) bytes;
    String.length bytes
  in
  let full = put_gen 0 in
  let s0 = Store.stats store in
  ignore (put_gen 1);
  let s1 = Store.stats store in
  [
    ("store.gen0-full-write", full, s0.Store.bytes_written);
    ("store.gen1-dedup-dirty-1of16", full, s1.Store.bytes_written - s0.Store.bytes_written);
  ]

(* Incremental-checkpoint shape: a 64-page image with one 256 KiB window
   (4 pages of 16 groups) dirtied since the last checkpoint.  The delta
   encoding ships only the dirty frames, so its size against the full
   encode is a property of the codec — it joins the ratio baseline.  The
   forked-vs-inline blackout is virtual-time deterministic for the same
   reason (simulated milliseconds, like the scheduler records). *)
let delta_records () =
  let sp = Mem.Address_space.create () in
  let r =
    Mem.Address_space.map sp ~kind:Mem.Region.Heap ~perms:Mem.Region.rw
      ~bytes:(64 * Mem.Page.size) ()
  in
  (* materialize every page with incompressible data so the full encode
     ships real bytes (synthetic pages encode as compact seeds) *)
  let rng = Util.Rng.create 99L in
  for p = 0 to 63 do
    Mem.Address_space.write sp
      ~addr:(r.Mem.Region.start_addr + (p * Mem.Page.size))
      (Bytes.unsafe_to_string (Util.Rng.bytes rng Mem.Page.size))
  done;
  let img =
    {
      Mtcp.Image.cmdline = [ "bench" ];
      env = [];
      threads = [];
      space = sp;
      sigtable = [];
      pending_signals = [];
    }
  in
  let algo = Compress.Algo.Null in
  let full = Mtcp.Image.encode ~algo img in
  Mem.Address_space.clear_dirty sp;
  for p = 20 to 23 do
    Mem.Address_space.write sp
      ~addr:(r.Mem.Region.start_addr + (p * Mem.Page.size))
      "dirty"
  done;
  let delta = Mtcp.Image.encode_delta ~algo img in
  let fk = Harness.Extras.forked_ablation () in
  [
    ("ckpt.delta-bytes-dirty-1of16", String.length full, String.length delta);
    ("ckpt.forked-vs-inline-blackout", ms fk.Harness.Extras.plain_s, ms fk.Harness.Extras.forked_s);
  ]

(* Scheduler shape: the canned three-job preempt/fail/drain scenario is
   virtual-time deterministic, so its makespan and checkpoint-bounded
   lost work are encoder-like properties — they join the ratio baseline
   (values in simulated milliseconds).  The invariants bound what the
   fault path is allowed to cost over the no-fault reference. *)
let sched_records () =
  let reference = Chaos.Sched_demo.run ~faults:false () in
  let faulted = Chaos.Sched_demo.run ~faults:true () in
  let mk_ref = Sched.Scheduler.makespan reference.Chaos.Sched_demo1k.k_sched in
  let mk_f = Sched.Scheduler.makespan faulted.Chaos.Sched_demo1k.k_sched in
  let lost = Sched.Scheduler.total_lost_work faulted.Chaos.Sched_demo1k.k_sched in
  [
    ("sched.makespan-faulted-vs-nofault", ms mk_ref, ms mk_f);
    ("sched.lost-work-vs-makespan", ms mk_f, ms lost);
  ]

(* Scale shape: the 1000-small-job scenario run twice on the same
   submissions — once with the per-job op queues, once with
   [~max_inflight:1], which reproduces the old fully-serialized
   scheduler.  Both makespans are virtual-time deterministic, so their
   ratio is a property of the op-queue design and joins the ratio
   baseline; the in-flight peak must show the queues actually overlap
   work. *)
let sched1k_records () =
  let concurrent = Chaos.Sched_demo1k.run ~faults:false () in
  let serialized = Chaos.Sched_demo1k.run ~faults:false ~max_inflight:1 () in
  let peak = Sched.Scheduler.peak_ops_inflight concurrent.Chaos.Sched_demo1k.k_sched in
  let mk_c = Sched.Scheduler.makespan concurrent.Chaos.Sched_demo1k.k_sched in
  let mk_s = Sched.Scheduler.makespan serialized.Chaos.Sched_demo1k.k_sched in
  [
    (* ratio 8/peak <= 1 iff at least eight ops ran concurrently *)
    ("sched.ops-inflight", peak, 8);
    ("sched.makespan-1000job", ms mk_s, ms mk_c);
  ]

(* One single-node `p:dirty` run ([pages] materialized, [dirty] rewritten
   per step, output to [out]): 1.0 simulated second, then checkpoint,
   kill and restart.  Returns the (checkpoint, restart) durations in
   simulated seconds. *)
let dirty_cycle ~options ~pages ~dirty ~out =
  Chaos.Progs.ensure_registered ();
  let env = Harness.Common.setup ~nodes:1 ~options () in
  let rt = env.Harness.Common.rt in
  ignore
    (Dmtcp.Api.launch rt ~node:0 ~prog:"p:dirty"
       ~argv:[ string_of_int pages; string_of_int dirty; "20000"; out ]);
  Harness.Common.run_for env 1.0;
  Dmtcp.Api.checkpoint_now rt;
  let ckpt = Dmtcp.Api.last_checkpoint_seconds rt in
  let script = Dmtcp.Api.restart_script rt in
  Dmtcp.Api.kill_computation rt;
  Dmtcp.Api.restart rt script;
  Dmtcp.Api.await_restart rt;
  let rst = Dmtcp.Api.last_restart_seconds rt in
  Harness.Common.teardown env;
  (ckpt, rst)

(* Restart fast-path shape: both records are virtual-time deterministic
   (simulated milliseconds), so they join the ratio baseline.

   - lazy-vs-eager blackout: the 1-of-16-dirty workload (4096 pages
     materialized, 256 rewritten per iteration) checkpointed and
     restarted twice, once eager and once with DMTCP_LAZY_RESTART.
     Lazy restore resumes threads after the hot set only — the cold
     heap faults in on touch and drains through the prefetcher — so the
     restart blackout must collapse.

   - striped fetch: the same 4 MiB frame-chunked image fetched back
     from the store with one replica (every block queued on a single
     disk) vs two (blocks stripe across the least-loaded surviving
     replica), measuring the modeled fetch delay. *)
let restart_blackout ?(pages = 4096) ?(dirty = 256) ~lazy_restart () =
  let options = { Dmtcp.Options.default with Dmtcp.Options.lazy_restart } in
  snd (dirty_cycle ~options ~pages ~dirty ~out:"/tmp/lz")

let striped_fetch_delay ~replicas =
  let eng, store = bench_store ~replicas in
  let bytes = null_image ~hostid:3 ~pid:51 ~generation:0 (Bytes.to_string (pattern ())) in
  put_image store ~lineage:"3-51" ~generation:0 ~name:"img-stripe" bytes;
  (* let the write bookings drain so the fetch measures read striping,
     not queuing behind its own put *)
  Sim.Engine.run ~until:10.0 eng;
  match Store.fetch store ~node:0 ~name:"img-stripe" with
  | Some (_, delay) -> delay
  | None -> failwith "bench: striped image vanished from the store"

let restore_records () =
  let eager = restart_blackout ~lazy_restart:false () in
  let lzy = restart_blackout ~lazy_restart:true () in
  let single = striped_fetch_delay ~replicas:1 in
  let striped = striped_fetch_delay ~replicas:2 in
  [
    ("rst.lazy-vs-eager-blackout", ms eager, ms lzy);
    ("store.striped-fetch-speedup", ms single, ms striped);
  ]

(* Plugin hook overhead: the same 1-of-16-dirty cycle with every
   built-in plugin enabled vs none.  Handlers run in zero simulated
   time and this workload holds nothing the heuristics act on, so the
   checkpoint+restart blackout must not grow — the record pins the
   dispatch machinery itself at <= 5% overhead. *)
let plugin_cycle ~plugins () =
  let options = { Dmtcp.Options.default with Dmtcp.Options.plugins } in
  let ckpt, rst = dirty_cycle ~options ~pages:1024 ~dirty:64 ~out:"/tmp/po" in
  ckpt +. rst

let plugin_records () =
  let off = plugin_cycle ~plugins:[] () in
  let all = plugin_cycle ~plugins:Dmtcp.Plugins.all_names () in
  [ ("plugin.hook-overhead", ms off, ms all) ]

(* The rank/proxy split's image-shape payoff, as committed records: the
   same bsp collective workload checkpointed mid-straggle on both
   transports.  The phase straggler is the allreduce root, so at the
   checkpoint the other ranks' gather frames are parked en route to a
   rank that is not reading.  On the direct backend those bytes sit in
   the root's TCP sockets and the drain barrier copies them into the
   rank images; on the proxy backend they are proxy custody —
   disposable by design — so rank images carry no drained bytes, and
   shed the per-neighbour socket specs besides. *)
let mpi_cycle ~kind ~extra () =
  let base_port = Harness.Common.base_port in
  Proxy.Accounting.reset ~base_port;
  let options =
    if kind = Harness.Common.Proxy then
      { Dmtcp.Options.default with Dmtcp.Options.plugins = [ "ext-sock"; "mpi-proxy" ] }
    else Dmtcp.Options.default
  in
  let env = Harness.Common.setup ~nodes:4 ~cores_per_node:2 ~options () in
  Harness.Common.start_workload env
    {
      Harness.Common.w_name = "bsp";
      w_kind = kind;
      w_prog = Apps.Stencil.bsp_prog;
      w_nprocs = 8;
      w_rpn = 2;
      w_extra = extra;
      w_warmup = 0.05;
    };
  Harness.Common.run_for env 0.2;
  Dmtcp.Api.checkpoint_now env.Harness.Common.rt;
  let script = Dmtcp.Api.restart_script env.Harness.Common.rt in
  (* encoded image bytes, not the modeled memory footprint: the fd
     specs and drained socket bytes the proxy split removes live in the
     encoding *)
  let image_bytes =
    List.fold_left
      (fun total (host, paths) ->
        let vfs = Simos.Kernel.vfs (Simos.Cluster.kernel env.Harness.Common.cl host) in
        List.fold_left
          (fun total path ->
            match Simos.Vfs.lookup vfs path with
            | Some f -> total + String.length (Simos.Vfs.read_all f)
            | None -> total)
          total paths)
      0 script.Dmtcp.Restart_script.entries
  in
  let _estab, drained = Chaos.Proxy_fault.image_stats env script in
  Harness.Common.teardown env;
  (image_bytes, drained)

let mpi_records () =
  let bsp = [ "1"; "512"; "1"; "0.6" ] in
  let d_img, d_drained = mpi_cycle ~kind:Harness.Common.Direct ~extra:("direct" :: bsp) () in
  let p_img, p_drained = mpi_cycle ~kind:Harness.Common.Proxy ~extra:bsp () in
  [
    ("mpi.proxy-vs-direct-drain-bytes", d_drained, p_drained);
    ("mpi.proxy-ckpt-image-bytes", d_img, p_img);
  ]

(* BENCH_RESTORE_SWEEP=1: print the eager/lazy blackout sweep over
   working-set sizes, and the striped fetch delay over replica counts
   (the tables in EXPERIMENTS.md). Virtual-time deterministic, but kept
   out of the baseline records: it exists to be re-run by hand. *)
let restore_sweep () =
  hr "Restart fast-path sweep (modeled ms, deterministic)";
  Printf.printf "%10s %8s %12s %11s %8s\n" "pages" "MiB" "eager (ms)" "lazy (ms)" "ratio";
  List.iter
    (fun pages ->
      let eager = restart_blackout ~pages ~dirty:(pages / 16) ~lazy_restart:false () in
      let lzy = restart_blackout ~pages ~dirty:(pages / 16) ~lazy_restart:true () in
      Printf.printf "%10d %8d %12d %11d %8.4f\n" pages
        (pages * Mem.Page.size / 1024 / 1024)
        (ms eager) (ms lzy) (lzy /. eager))
    [ 256; 1024; 4096; 8192 ];
  Printf.printf "\n%10s %12s\n" "replicas" "fetch (ms)";
  List.iter
    (fun replicas ->
      Printf.printf "%10d %12d\n" replicas (ms (striped_fetch_delay ~replicas)))
    [ 1; 2; 3; 4 ];
  flush stdout

let ratio_of bytes_in bytes_out = float_of_int bytes_out /. float_of_int bytes_in

let print_ratios ratios =
  hr "Ratio records (deterministic: bytes and simulated ms, see EXPERIMENTS.md)";
  List.iter
    (fun (name, bytes_in, bytes_out) ->
      Printf.printf "%-42s %10d -> %9d bytes  (ratio %.6f)\n" name bytes_in bytes_out
        (ratio_of bytes_in bytes_out))
    ratios;
  flush stdout

(* BENCH_JSON=path: the records as a JSON array, one object per line so
   line-oriented tools (the CI baseline diff) can compare them. *)
let emit_json path ratios =
  let oc = open_out path in
  output_string oc "[\n";
  output_string oc
    (String.concat ",\n"
       (List.map
          (fun (name, bytes_in, bytes_out) ->
            Printf.sprintf
              {|{"kind": "ratio", "name": "%s", "bytes_in": %d, "bytes_out": %d, "ratio": %.6f}|}
              name bytes_in bytes_out (ratio_of bytes_in bytes_out))
          ratios));
  output_string oc "\n]\n";
  close_out oc;
  Printf.printf "wrote %s\n%!" path

(* BENCH_ASSERT=1: fail (exit 1) unless every bounded record stays at or
   under its limit: the compressor pulls its weight, the store and delta
   images ship only dirty frames, and each fast path keeps its margin. *)
let assert_invariants ratios =
  let ratio name =
    let _, bytes_in, bytes_out = List.find (fun (n, _, _) -> n = name) ratios in
    ratio_of bytes_in bytes_out
  in
  let failed = ref false in
  let check name what limit =
    let r = ratio name in
    if r > limit then begin
      Printf.printf "BENCH_ASSERT FAILED: %s: %s (ratio %.6f > %.3f)\n" name what r limit;
      failed := true
    end
    else Printf.printf "bench invariant ok: %s ratio %.6f <= %.3f\n" name r limit
  in
  check "deflate-raw-text-1MB" "text must compress to half or better" 0.5;
  check "container-deflate-text-1MB" "text must compress to half or better" 0.5;
  check "deflate-raw-random-64KB" "random must expand by at most 1%" 1.01;
  check "container-deflate-random-64KB" "random must expand by at most 1%" 1.01;
  check "store.gen0-full-write" "first generation ships at most the image plus catalog overhead"
    1.01;
  check "store.gen1-dedup-dirty-1of16"
    "a 1-of-16-dirty generation must dedup to an eighth of the image or less" 0.125;
  check "ckpt.delta-bytes-dirty-1of16"
    "a 1-of-16-dirty interval checkpoint must write an eighth of the full image or less" 0.125;
  check "ckpt.forked-vs-inline-blackout"
    "forked checkpointing must cut the blackout to a quarter or less" 0.25;
  check "sched.makespan-faulted-vs-nofault"
    "a node loss plus a drain must at most double the canned scenario's makespan" 2.0;
  check "sched.lost-work-vs-makespan"
    "interval checkpoints must bound lost work to a quarter of the makespan" 0.25;
  check "sched.ops-inflight"
    "the op queues must run at least eight operations concurrently" 1.0;
  check "sched.makespan-1000job"
    "concurrent ops must at least halve the serialized 1000-job makespan" 0.5;
  check "rst.lazy-vs-eager-blackout"
    "lazy restore must cut the restart blackout to a quarter or less" 0.25;
  check "store.striped-fetch-speedup"
    "striped fetch over two replicas must run at least 1.5x faster than one" (1. /. 1.5);
  check "plugin.hook-overhead"
    "dispatching every built-in plugin hook must cost at most 5% blackout" 1.05;
  check "mpi.proxy-vs-direct-drain-bytes"
    "the proxy split must leave nothing to drain into rank images" 0.0;
  check "mpi.proxy-ckpt-image-bytes"
    "proxy-backend rank images must encode strictly smaller than direct-backend ones" 0.999;
  flush stdout;
  if !failed then exit 1

let () =
  let ratios =
    ratio_records () @ store_records () @ delta_records () @ sched_records ()
    @ sched1k_records () @ restore_records () @ plugin_records () @ mpi_records ()
  in
  print_ratios ratios;
  (match Sys.getenv_opt "BENCH_JSON" with
  | Some path -> emit_json path ratios
  | None -> ());
  if Sys.getenv_opt "BENCH_ASSERT" = Some "1" then assert_invariants ratios;
  if Sys.getenv_opt "BENCH_RESTORE_SWEEP" = Some "1" then restore_sweep ()
