(* Integration sanity for the experiment harness: each figure/table
   driver runs end-to-end at a tiny scale and produces sane numbers. *)

let check = Alcotest.check

let test_fig3_single_app () =
  let rows = Harness.Fig3.run ~reps:1 ~apps:[ "python" ] () in
  check Alcotest.int "one row" 1 (List.length rows);
  let r = List.hd rows in
  Alcotest.(check bool) "checkpoint time positive" true
    (Util.Stats.mean r.Harness.Fig3.m.Harness.Common.ckpt_times > 0.);
  Alcotest.(check bool) "compressed below raw" true
    (r.Harness.Fig3.m.Harness.Common.compressed_bytes
    < r.Harness.Fig3.m.Harness.Common.uncompressed_bytes);
  Alcotest.(check bool) "text renders" true (String.length (Harness.Fig3.to_text rows) > 100)

let test_fig6_two_points () =
  let pts = Harness.Fig6.run ~reps:1 ~totals_gb:[ 2.; 8. ] ~nprocs:8 () in
  check Alcotest.int "two points" 2 (List.length pts);
  (match pts with
  | [ a; b ] ->
    Alcotest.(check bool)
      (Printf.sprintf "more memory, longer checkpoint (%.2f < %.2f)" a.Harness.Fig6.ckpt
         b.Harness.Fig6.ckpt)
      true
      (a.Harness.Fig6.ckpt < b.Harness.Fig6.ckpt)
  | _ -> Alcotest.fail "expected two points");
  Alcotest.(check bool) "text renders" true (String.length (Harness.Fig6.to_text pts) > 50)

let test_table1_quick () =
  let r = Harness.Table1.run ~reps:1 ~nprocs:8 () in
  let get stages name = Option.value ~default:0. (List.assoc_opt name stages) in
  (* write dominates and compression makes it worse — the table's story *)
  Alcotest.(check bool) "write dominates suspend (uncompressed)" true
    (get r.Harness.Table1.ckpt_uncompressed "ckpt/write"
    > get r.Harness.Table1.ckpt_uncompressed "ckpt/suspend");
  Alcotest.(check bool) "compressed write slower than uncompressed" true
    (get r.Harness.Table1.ckpt_compressed "ckpt/write"
    > get r.Harness.Table1.ckpt_uncompressed "ckpt/write");
  Alcotest.(check bool) "forked write cheapest" true
    (get r.Harness.Table1.ckpt_forked "ckpt/write"
    < get r.Harness.Table1.ckpt_uncompressed "ckpt/write");
  Alcotest.(check bool) "restart memory stage dominates" true
    (get r.Harness.Table1.restart_compressed "restart/mem"
    > get r.Harness.Table1.restart_compressed "restart/files");
  (* the message-bound MG run moves with any change to event order, so
     pin its whole table *)
  let golden = In_channel.with_open_bin "table1_quick_golden.txt" In_channel.input_all in
  check Alcotest.string "table matches table1_quick_golden.txt" golden (Harness.Table1.to_text r)

let test_forked_ablation () =
  let r = Harness.Extras.forked_ablation () in
  Alcotest.(check bool)
    (Printf.sprintf "forked (%.3f) well under plain (%.3f)" r.Harness.Extras.forked_s
       r.Harness.Extras.plain_s)
    true
    (r.Harness.Extras.forked_s *. 3. < r.Harness.Extras.plain_s)

let test_incremental_ablation () =
  let r = Harness.Extras.incremental_ablation ~ckpts:2 () in
  List.iter
    (fun t ->
      Alcotest.(check bool)
        (Printf.sprintf "incremental (%.3f) far below full (%.3f)" t r.Harness.Extras.full_first)
        true
        (t *. 10. < r.Harness.Extras.full_first))
    r.Harness.Extras.incrementals

let test_drain_ablation_monotone () =
  let pts = Harness.Extras.drain_ablation ~pairs_list:[ 1; 4 ] () in
  match pts with
  | [ a; b ] ->
    Alcotest.(check bool) "more pairs, more drained bytes" true
      (b.Harness.Extras.drained_kb > a.Harness.Extras.drained_kb);
    Alcotest.(check bool) "drained something" true (a.Harness.Extras.drained_kb > 0.)
  | _ -> Alcotest.fail "expected two points"

let test_fig5_tiny () =
  let r = Harness.Fig5.run ~reps:1 ~sizes:[ 8; 16 ] () in
  check Alcotest.int "two local points" 2 (List.length r.Harness.Fig5.local);
  check Alcotest.int "two san points" 2 (List.length r.Harness.Fig5.san);
  (* local-disk checkpointing stays roughly flat as processes double *)
  match r.Harness.Fig5.local with
  | [ a; b ] ->
    let ta = Util.Stats.mean a.Harness.Fig5.ckpt and tb = Util.Stats.mean b.Harness.Fig5.ckpt in
    Alcotest.(check bool)
      (Printf.sprintf "near-constant scaling (%.2f vs %.2f)" ta tb)
      true
      (tb < ta *. 1.8)
  | _ -> Alcotest.fail "expected two points"

let () =
  Alcotest.run "harness"
    [
      ( "figures",
        [
          Alcotest.test_case "fig3 single app" `Quick test_fig3_single_app;
          Alcotest.test_case "fig5 tiny scaling" `Quick test_fig5_tiny;
          Alcotest.test_case "fig6 two points" `Quick test_fig6_two_points;
          Alcotest.test_case "table1 quick" `Quick test_table1_quick;
        ] );
      ( "ablations",
        [
          Alcotest.test_case "forked" `Quick test_forked_ablation;
          Alcotest.test_case "incremental" `Quick test_incremental_ablation;
          Alcotest.test_case "drain monotone" `Quick test_drain_ablation_monotone;
        ] );
    ]
