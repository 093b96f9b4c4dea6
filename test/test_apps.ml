(* Tests for the workload layer: the MPI library (init, messages,
   collectives), resource managers, NAS kernels (verified results, with
   and without checkpoints), ParGeant4, iPython, desktop profiles. *)

let check = Alcotest.check

let () = Apps.Registry.register_all ()

let make ?(nodes = 4) ?(options = Dmtcp.Options.default) () =
  let cl = Simos.Cluster.create ~nodes () in
  let rt = Dmtcp.Api.install cl ~options () in
  (cl, rt)

let run_for cl seconds =
  Sim.Engine.run ~until:(Simos.Cluster.now cl +. seconds) (Simos.Cluster.engine cl)

let file_content cl node path =
  match Simos.Vfs.lookup (Simos.Kernel.vfs (Simos.Cluster.kernel cl node)) path with
  | Some f -> Some (Simos.Vfs.read_all f)
  | None -> None

(* Launch a kernel the way mpirun does, but directly (no resource
   managers), for focused kernel tests. *)
let launch_ranks rt ~prog ~nprocs ~rpn ~base_port ~extra =
  for rank = 0 to nprocs - 1 do
    let node = rank / rpn in
    ignore
      (Dmtcp.Api.launch rt ~node ~prog
         ~argv:
           ([
              string_of_int rank;
              string_of_int nprocs;
              string_of_int base_port;
              string_of_int rpn;
              "0";
              "0" (* notification disabled *);
            ]
           @ extra))
  done

let result cl ~short ~base_port =
  (* rank 0 writes on node 0 *)
  file_content cl 0 (Printf.sprintf "/result/%s-%d" short base_port)

let starts_with prefix s =
  String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix

let check_verified cl ~short ~base_port =
  match result cl ~short ~base_port with
  | Some s ->
    Alcotest.(check bool)
      (Printf.sprintf "%s verified (got %S)" short s)
      true
      (starts_with (String.uppercase_ascii short ^ " VERIFIED") s)
  | None -> Alcotest.failf "%s: no result file" short

(* ------------------------------------------------------------------ *)
(* plain kernel runs (no checkpoint): results must verify *)

let kernel_case ?(nprocs = 8) ?(rpn = 2) ?(timeout = 400.) ~prog ~short ?(extra = []) () =
  let cl, rt = make ~nodes:((nprocs / rpn) + 1) () in
  launch_ranks rt ~prog ~nprocs ~rpn ~base_port:5200 ~extra;
  run_for cl timeout;
  check_verified cl ~short ~base_port:5200

let test_baseline () = kernel_case ~prog:"nas:baseline" ~short:"baseline" ()
let test_ep () = kernel_case ~prog:"nas:ep" ~short:"ep" ~extra:[ "100000" ] ()
let test_is () = kernel_case ~prog:"nas:is" ~short:"is" ~extra:[ "4000" ] ()
let test_cg () = kernel_case ~prog:"nas:cg" ~short:"cg" ~extra:[ "400" ] ()
let test_mg () = kernel_case ~prog:"nas:mg" ~short:"mg" ~extra:[ "20" ] ()
let test_lu () = kernel_case ~prog:"nas:lu" ~short:"lu" ~extra:[ "30" ] ()
let test_sp () = kernel_case ~prog:"nas:sp" ~short:"sp" ~extra:[ "25" ] ()
let test_bt () = kernel_case ~prog:"nas:bt" ~short:"bt" ~extra:[ "25" ] ()

let test_pargeant4 () =
  kernel_case ~prog:"apps:pargeant4" ~short:"pargeant4" ~extra:[ "200" ] ()

let test_ipython_demo () =
  kernel_case ~prog:"apps:ipython-demo" ~short:"ipython-demo" ~extra:[ "100" ] ()

(* ------------------------------------------------------------------ *)
(* kernels checkpointed mid-run must still verify *)

(* [pins]: CRC-32 of each rank image of the checkpoint, in (node, path)
   order (see {!Pins.image_crcs}) *)
let ckpt_case ?(nprocs = 8) ?(rpn = 2) ?pins ~prog ~short ?(extra = []) ~warmup () =
  let cl, rt = make ~nodes:((nprocs / rpn) + 1) () in
  launch_ranks rt ~prog ~nprocs ~rpn ~base_port:5300 ~extra;
  run_for cl warmup;
  Dmtcp.Api.checkpoint_now rt;
  Option.iter
    (fun pins ->
      Pins.check_crcs short pins
        (Pins.image_crcs cl (Dmtcp.Runtime.ckpt_info rt).Dmtcp.Runtime.images))
    pins;
  run_for cl 400.;
  check_verified cl ~short ~base_port:5300;
  let info = Dmtcp.Runtime.ckpt_info rt in
  check Alcotest.int "all ranks checkpointed" nprocs (List.length info.Dmtcp.Runtime.images)

let cg_pinned_crcs =
  [| 1659270050l; -1016542029l; -1005545743l; -215892747l; -74223013l; 1196492284l; -1983320688l;
     -299867528l |]

let test_cg_with_checkpoint () =
  ckpt_case ~pins:cg_pinned_crcs ~prog:"nas:cg" ~short:"cg" ~extra:[ "400"; "100" ] ~warmup:1.0 ()

let test_is_with_checkpoint () =
  ckpt_case ~prog:"nas:is" ~short:"is" ~extra:[ "20000"; "200" ] ~warmup:0.5 ()

(* Pinned IS images: 8 ranks checkpointed at a fixed instant mid-round,
   when some ranks are still collecting their buckets (unsorted received
   keys, messages in flight) and the rest hold sorted buckets.  The CRC-32
   of every rank's image and the result line are constants: a change to
   the IS kernel must keep its images and its answer byte-identical. *)
let is_pinned_crcs =
  [| 212003075l; 1478931592l; -89663609l; -508729975l; 139436896l; 684464563l; -1092563954l;
     -2114854787l |]

let is_pinned_result = "IS VERIFIED 20082"

(* (phase, |received|) of the IS state inside a rank image *)
let is_phase_received (img : Mtcp.Image.t) =
  let module R = Util.Codec.Reader in
  match img.Mtcp.Image.threads with
  | [ ti ] ->
    let r = R.of_string (Util.Codec.to_string Simos.Program.instance_codec ti.Mtcp.Image.ti_inst) in
    ignore (R.string r);
    let r = R.of_string (R.string r) in
    check Alcotest.int "rank image in the kernel loop" 2 (R.u8 r);
    ignore (Util.Codec.read Apps.Mpi.codec r);
    for _ = 1 to 4 do
      ignore (R.uvarint r)
    done;
    let phase = R.uvarint r in
    ignore (R.raw r (8 * R.uvarint r));
    (phase, R.uvarint r)
  | _ -> Alcotest.fail "IS rank image should hold one user thread"

let test_is_pinned_images () =
  let nprocs = 8 and rpn = 2 and base_port = 5700 in
  let cl, rt = make ~nodes:((nprocs / rpn) + 1) () in
  launch_ranks rt ~prog:"nas:is" ~nprocs ~rpn ~base_port ~extra:[ "20000"; "40" ];
  run_for cl 0.0355;
  Dmtcp.Api.checkpoint_now rt;
  let images = (Dmtcp.Runtime.ckpt_info rt).Dmtcp.Runtime.images in
  check Alcotest.int "all ranks imaged" nprocs (List.length images);
  let crcs = Array.make nprocs 0l and collecting = ref 0 in
  List.iter
    (fun (node, path) ->
      match file_content cl node path with
      | None -> Alcotest.failf "image %s missing on node %d" path node
      | Some bytes ->
        let img = Dmtcp.Ckpt_image.mtcp (Dmtcp.Ckpt_image.decode bytes) in
        let rank = int_of_string (List.nth img.Mtcp.Image.cmdline 1) in
        (match is_phase_received img with
        | 2, n when n > 0 -> incr collecting
        | _ -> ());
        crcs.(rank) <- Pins.image_crc bytes)
    images;
  Alcotest.(check bool) "some ranks mid-collection" true (!collecting > 0 && !collecting < nprocs);
  Array.iteri
    (fun rank crc -> check Alcotest.int32 (Printf.sprintf "rank %d image CRC-32" rank) crc crcs.(rank))
    is_pinned_crcs;
  run_for cl 400.;
  check Alcotest.(option string) "result line" (Some is_pinned_result)
    (result cl ~short:"is" ~base_port)

let pargeant4_pinned_crcs =
  [| 1135844403l; -1661388516l; -1342762122l; 825398478l; -157066241l; -1814109481l; -1633251538l;
     1047366356l |]

let test_pargeant4_with_checkpoint () =
  ckpt_case ~pins:pargeant4_pinned_crcs ~prog:"apps:pargeant4" ~short:"pargeant4"
    ~extra:[ "400"; "50" ] ~warmup:0.5 ()

let test_cg_with_restart () =
  let nprocs = 6 and rpn = 2 in
  let cl, rt = make ~nodes:4 () in
  launch_ranks rt ~prog:"nas:cg" ~nprocs ~rpn ~base_port:5400 ~extra:[ "400"; "100" ];
  run_for cl 1.0;
  Dmtcp.Api.checkpoint_now rt;
  let script = Dmtcp.Api.restart_script rt in
  Dmtcp.Api.kill_computation rt;
  Dmtcp.Api.restart rt script;
  Dmtcp.Api.await_restart rt;
  run_for cl 400.;
  check_verified cl ~short:"cg" ~base_port:5400

(* ------------------------------------------------------------------ *)
(* resource managers *)

let test_mpd_ring () =
  let cl, rt = make ~nodes:4 () in
  let _ = Dmtcp.Api.launch rt ~node:0 ~prog:"mpi:mpdboot" ~argv:[ "4" ] in
  run_for cl 2.0;
  (* 4 mpds running, hijacked, with ring sockets in their conn tables *)
  let procs = Dmtcp.Runtime.hijacked_processes rt in
  let mpds =
    List.filter
      (fun (node, pid, _) ->
        match Dmtcp.Runtime.proc_of rt ~node ~pid with
        | Some p -> ( match p.Simos.Kernel.cmdline with prog :: _ -> prog = "mpi:mpd" | [] -> false)
        | None -> false)
      procs
  in
  check Alcotest.int "4 mpds" 4 (List.length mpds);
  (* the ring must checkpoint cleanly *)
  Dmtcp.Api.checkpoint_now rt;
  let info = Dmtcp.Runtime.ckpt_info rt in
  Alcotest.(check bool) "mpds checkpointed" true (info.Dmtcp.Runtime.nprocs >= 4)

let test_mpirun_end_to_end_mpich2 () =
  let cl, rt = make ~nodes:4 () in
  let _ = Dmtcp.Api.launch rt ~node:0 ~prog:"mpi:mpdboot" ~argv:[ "4" ] in
  run_for cl 1.0;
  let _ =
    Dmtcp.Api.launch rt ~node:0 ~prog:"mpi:mpirun"
      ~argv:[ "mpich2"; "8"; "2"; "5500"; "nas:ep"; "50000" ]
  in
  run_for cl 200.;
  check_verified cl ~short:"ep" ~base_port:5500;
  (* mpirun exited after collecting all completions *)
  let mpiruns =
    List.filter
      (fun (_, p) ->
        match (p : Simos.Kernel.process).Simos.Kernel.cmdline with
        | prog :: _ -> prog = "mpi:mpirun"
        | [] -> false)
      (Simos.Cluster.all_processes cl)
  in
  check Alcotest.int "mpirun gone" 0 (List.length mpiruns)

let test_mpirun_end_to_end_openmpi () =
  let cl, rt = make ~nodes:4 () in
  let _ =
    Dmtcp.Api.launch rt ~node:0 ~prog:"mpi:mpirun"
      ~argv:[ "openmpi"; "8"; "2"; "5600"; "nas:ep"; "50000" ]
  in
  run_for cl 200.;
  check_verified cl ~short:"ep" ~base_port:5600;
  (* orted daemons were started and became checkpointable *)
  ()

(* ------------------------------------------------------------------ *)
(* desktop catalog *)

let test_desktop_profiles_complete () =
  check Alcotest.int "21 applications" 21 (List.length Apps.Desktop.figure3);
  Alcotest.(check bool) "runcms is 680 MB" true (Apps.Desktop.runcms.Apps.Desktop.mb = 680.);
  Alcotest.(check bool) "matlab largest interp" true
    (List.exists
       (fun p -> p.Apps.Desktop.p_name = "matlab" && p.Apps.Desktop.mb > 30.)
       Apps.Desktop.figure3)

let test_desktop_app_checkpoint_restart () =
  let cl, rt = make ~nodes:2 () in
  let _ = Dmtcp.Api.launch rt ~node:0 ~prog:"apps:desktop" ~argv:[ "python" ] in
  run_for cl 1.0;
  Dmtcp.Api.checkpoint_now rt;
  let script = Dmtcp.Api.restart_script rt in
  Dmtcp.Api.kill_computation rt;
  let script = Dmtcp.Restart_script.remap script (fun _ -> 1) in
  Dmtcp.Api.restart rt script;
  Dmtcp.Api.await_restart rt;
  run_for cl 1.0;
  (* the interpreter survived migration with its pty *)
  let procs = Dmtcp.Runtime.hijacked_processes rt in
  check Alcotest.int "one process restored" 1 (List.length procs);
  let node, pid, _ = List.hd procs in
  check Alcotest.int "on the laptop host" 1 node;
  match Dmtcp.Runtime.proc_of rt ~node ~pid with
  | Some p ->
    let has_pty =
      Hashtbl.fold
        (fun _ (d : Simos.Fdesc.t) acc ->
          acc || match d.Simos.Fdesc.kind with Simos.Fdesc.Pty_s _ -> true | _ -> false)
        p.Simos.Kernel.fdtable false
    in
    Alcotest.(check bool) "pty restored" true has_pty
  | None -> Alcotest.fail "restored process not found"

let test_desktop_process_tree () =
  let cl, rt = make ~nodes:2 () in
  let _ = Dmtcp.Api.launch rt ~node:0 ~prog:"apps:desktop" ~argv:[ "tightvnc+twm" ] in
  run_for cl 2.0;
  (* vnc server + twm + xterm *)
  check Alcotest.int "three processes" 3 (List.length (Dmtcp.Runtime.hijacked_processes rt));
  Dmtcp.Api.checkpoint_now rt;
  let info = Dmtcp.Runtime.ckpt_info rt in
  check Alcotest.int "three images" 3 info.Dmtcp.Runtime.nprocs

let test_ipython_shell () =
  let cl, rt = make ~nodes:2 () in
  let _ = Dmtcp.Api.launch rt ~node:0 ~prog:"apps:ipython-shell" ~argv:[] in
  run_for cl 1.0;
  Dmtcp.Api.checkpoint_now rt;
  Alcotest.(check bool) "shell checkpointed" true
    ((Dmtcp.Runtime.ckpt_info rt).Dmtcp.Runtime.nprocs = 1)

(* pure unit tests: no simulation required *)

let ring size r = List.filter (fun n -> n >= 0 && n < size) [ r - 1; r + 1 ]

let test_mpi_placement () =
  let comm =
    Apps.Mpi.create ~rank:5 ~size:16 ~base_port:6000 ~ranks_per_node:4 ~neighbors:(ring 16) ()
  in
  check Alcotest.int "rank" 5 (Apps.Mpi.rank comm);
  check Alcotest.int "size" 16 (Apps.Mpi.size comm);
  check Alcotest.int "rank 5 on node 1" 1 (Apps.Mpi.host_of_rank comm 5);
  check Alcotest.int "rank 15 on node 3" 3 (Apps.Mpi.host_of_rank comm 15)

let test_mpi_codec_roundtrip () =
  let comm =
    Apps.Mpi.create ~rank:2 ~size:8 ~base_port:6000 ~ranks_per_node:2 ~neighbors:(ring 8) ()
  in
  Apps.Mpi.send comm ~dst:1 ~tag:'D' "payload-bytes";
  let comm' = Util.Codec.roundtrip Apps.Mpi.codec comm in
  check Alcotest.int "rank preserved" 2 (Apps.Mpi.rank comm');
  check Alcotest.int "pending bytes preserved" (Apps.Mpi.pending_out comm ~dst:1)
    (Apps.Mpi.pending_out comm' ~dst:1)

let test_coll_codec_roundtrip () =
  let st = Apps.Mpi.Coll.start (Apps.Mpi.Coll.allreduce_sum 3.25) in
  let st' = Util.Codec.roundtrip Apps.Mpi.Coll.codec st in
  ignore st';
  ()

let test_parse_rank_args () =
  let rank, size, port, rpn, nh, np, extra =
    Apps.Launchers.parse_rank_args [ "3"; "16"; "6000"; "4"; "0"; "6099"; "x"; "y" ]
  in
  check Alcotest.int "rank" 3 rank;
  check Alcotest.int "size" 16 size;
  check Alcotest.int "port" 6000 port;
  check Alcotest.int "rpn" 4 rpn;
  check Alcotest.int "notify host" 0 nh;
  check Alcotest.int "notify port" 6099 np;
  check Alcotest.(list string) "extra" [ "x"; "y" ] extra;
  Alcotest.(check bool) "bad argv rejected" true
    (try
       ignore (Apps.Launchers.parse_rank_args [ "1" ]);
       false
     with Failure _ -> true)

let test_notify_codec () =
  let n = Apps.Launchers.notify_start ~host:3 ~port:6099 in
  let n' = Util.Codec.roundtrip Apps.Launchers.notify_codec n in
  ignore n';
  ()

(* a program state whose variant tag names no constructor is corrupt,
   not silently read as the last constructor *)
let test_nas_unknown_state_tag () =
  let w = Util.Codec.Writer.create () in
  Util.Codec.Writer.string w "nas:is";
  Util.Codec.Writer.string w "\009";
  Alcotest.check_raises "tag 9" (Util.Codec.Reader.Corrupt "bad nas:is tag 9") (fun () ->
      ignore (Util.Codec.of_string Simos.Program.instance_codec (Util.Codec.Writer.contents w)))

let test_nas_catalog_complete () =
  check Alcotest.int "eight kernels" 8 (List.length Apps.Nas.catalog);
  Alcotest.(check bool) "IS has the biggest footprint" true
    (List.assoc "nas:is" Apps.Nas.catalog
    = List.fold_left (fun acc (_, mb) -> max acc mb) 0 Apps.Nas.catalog)

(* ------------------------------------------------------------------ *)
(* IS key helpers against the float-array code they replaced *)

let qtest ?(count = 300) name arb law = QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb law)
let key_range = 1 lsl 16

(* key arrays as IS draws them, biased towards the edge cases: empty,
   singleton, all-equal, and the range ends 0 and key_range - 1 *)
let keys_arb =
  let open QCheck.Gen in
  let key = frequency [ (1, return 0); (1, return (key_range - 1)); (6, int_bound (key_range - 1)) ] in
  QCheck.make ~print:QCheck.Print.(array int)
    (frequency
       [
         (1, return [||]);
         (1, map (fun k -> [| k |]) key);
         (1, map2 Array.make (int_range 2 50) key);
         (6, array_size (int_range 0 300) key);
       ])

let owner nbuckets key = min (nbuckets - 1) (key * nbuckets / key_range)

let prop_partition_as_cons_lists =
  qtest "partition = cons-list bucketing" QCheck.(pair (int_range 1 9) keys_arb) (fun (nbuckets, keys) ->
      let lists = Array.make nbuckets [] in
      Array.iter (fun key -> lists.(owner nbuckets key) <- key :: lists.(owner nbuckets key)) keys;
      Apps.Nas.Is_keys.partition ~nbuckets ~owner:(owner nbuckets) keys = Array.map Array.of_list lists)

let prop_sort_as_array_sort =
  qtest "counting sort = Array.sort compare" keys_arb (fun keys ->
      let expect = Array.copy keys in
      Array.sort compare expect;
      Apps.Nas.Is_keys.sort keys;
      keys = expect)

let prop_codec_as_floats =
  qtest "key codec = float-array codec, and round-trips" keys_arb (fun keys ->
      let module W = Util.Codec.Writer in
      let w = W.create () in
      W.uvarint w (Array.length keys);
      Array.iter (W.f64 w) (Array.map float_of_int keys);
      let bytes = Util.Codec.to_string Apps.Nas.Is_keys.codec keys in
      let back = Util.Codec.of_string Apps.Nas.Is_keys.codec bytes in
      bytes = W.contents w && back = keys)

let () =
  Alcotest.run "apps"
    [
      ( "units",
        [
          Alcotest.test_case "mpi placement" `Quick test_mpi_placement;
          Alcotest.test_case "mpi codec" `Quick test_mpi_codec_roundtrip;
          Alcotest.test_case "coll codec" `Quick test_coll_codec_roundtrip;
          Alcotest.test_case "rank argv" `Quick test_parse_rank_args;
          Alcotest.test_case "notify codec" `Quick test_notify_codec;
          Alcotest.test_case "nas catalog" `Quick test_nas_catalog_complete;
          Alcotest.test_case "nas state tag" `Quick test_nas_unknown_state_tag;
        ] );
      ("is keys", [ prop_partition_as_cons_lists; prop_sort_as_array_sort; prop_codec_as_floats ]);
      ( "kernels",
        [
          Alcotest.test_case "baseline verifies" `Quick test_baseline;
          Alcotest.test_case "EP verifies" `Quick test_ep;
          Alcotest.test_case "IS verifies" `Quick test_is;
          Alcotest.test_case "CG verifies" `Quick test_cg;
          Alcotest.test_case "MG verifies" `Quick test_mg;
          Alcotest.test_case "LU verifies" `Quick test_lu;
          Alcotest.test_case "SP verifies" `Quick test_sp;
          Alcotest.test_case "BT verifies" `Quick test_bt;
          Alcotest.test_case "ParGeant4 verifies" `Quick test_pargeant4;
          Alcotest.test_case "iPython demo verifies" `Quick test_ipython_demo;
        ] );
      ( "checkpointed",
        [
          Alcotest.test_case "CG + checkpoint" `Quick test_cg_with_checkpoint;
          Alcotest.test_case "IS + checkpoint" `Quick test_is_with_checkpoint;
          Alcotest.test_case "IS pinned images" `Quick test_is_pinned_images;
          Alcotest.test_case "ParGeant4 + checkpoint" `Quick test_pargeant4_with_checkpoint;
          Alcotest.test_case "CG + restart" `Quick test_cg_with_restart;
        ] );
      ( "runtimes",
        [
          Alcotest.test_case "mpd ring" `Quick test_mpd_ring;
          Alcotest.test_case "mpirun (MPICH2)" `Quick test_mpirun_end_to_end_mpich2;
          Alcotest.test_case "mpirun (OpenMPI)" `Quick test_mpirun_end_to_end_openmpi;
        ] );
      ( "desktop",
        [
          Alcotest.test_case "profiles complete" `Quick test_desktop_profiles_complete;
          Alcotest.test_case "checkpoint + migrate" `Quick test_desktop_app_checkpoint_restart;
          Alcotest.test_case "process tree" `Quick test_desktop_process_tree;
          Alcotest.test_case "ipython shell" `Quick test_ipython_shell;
        ] );
    ]
