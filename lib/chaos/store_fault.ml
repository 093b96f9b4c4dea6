(* Store and restart fast-path chaos: replica loss between checkpoint and
   restart, and faults aimed at demand-paged lazy restore and the
   striped parallel replica fetch.

   These scenarios live in their own module — not in [Scenario.sample] —
   so the seeded generator's draw order, and with it the pinned chaos
   corpus, stays byte-identical.  All are fully deterministic.

   - [replica_loss]: checkpoint into the replicated store, then lose the
     restart host's disk — every block's local replica.  The restarter
     must resolve the images through the catalog, pull the surviving
     remote replicas, and the computation must finish with the exact
     output of an unfaulted run.

   - [total_loss]: same, but every replica of the blocks is lost.  The
     restart must fail cleanly — exit code 73 with the unrecoverable
     blocks named in the trace — and restore nothing.

   - [lazy_kill]: restart with DMTCP_LAZY_RESTART, then crash the node
     while the background prefetcher is mid-drain (pages half-resident).
     Residency is a time-accounting device only — page contents are
     always materially restored — so a second restart from the same
     images must finish with the exact output of an unfaulted run, and
     the orphaned prefetcher must stop cleanly instead of touching the
     dead processes.

   - [stripe_drop]: issue a lazy restart whose image blocks stripe
     across three replicas, then drop two replica nodes mid-restart.
     Three distinct replica nodes out of four guarantee every block
     keeps a copy on node 0 or the home node, so the restart must
     complete and the computation must produce the unfaulted output. *)

module Common = Harness.Common

let home = Case.home
let iters = 400
let expected = Printf.sprintf "hog:%d" iters

(* launch memhog, settle, checkpoint into the store, kill the
   computation; returns the env, the store, the restart script and a
   reader of the workload's output *)
let checkpointed ~replicas ~lazy_restart ~out_path =
  let options =
    {
      Dmtcp.Options.default with
      Dmtcp.Options.store = true;
      store_replicas = replicas;
      keep_generations = 2;
      lazy_restart;
    }
  in
  let env = Case.memhog ~options ~iters ~out_path in
  Dmtcp.Api.checkpoint_now env.Common.rt;
  let script = Dmtcp.Api.restart_script env.Common.rt in
  Dmtcp.Api.kill_computation env.Common.rt;
  (env, Case.store_of env, script, fun () -> Case.output env out_path)

(* replica loss: two replicas, eager restart *)
let store_checkpointed () = checkpointed ~replicas:2 ~lazy_restart:false ~out_path:"/data/sf_out"

(* restart fast path: three replicas, lazy restart *)
let lazy_checkpointed () = checkpointed ~replicas:3 ~lazy_restart:true ~out_path:"/data/rf_out"

(* run the restarted computation out and judge its output *)
let finishes v env ~what output =
  Case.run_until env ~within:30. (fun () -> output () <> None);
  Case.expect v ~what ~want:expected (output ())

let replica_loss () =
  let env, store, script, output = store_checkpointed () in
  let v = Case.verdict () in
  (* the home node's disk dies: every image block loses its local copy *)
  Store.drop_node store home;
  if not (Dmtcp.Api.script_images_available env.Common.rt script) then
    Case.fail v "images reported unavailable with a replica of every block surviving";
  List.iter (Case.fail v "store verify after one-replica loss: %s") (Store.verify store);
  Dmtcp.Api.restart env.Common.rt script;
  Dmtcp.Api.await_restart env.Common.rt;
  finishes v env ~what:"restart from surviving replica" output;
  Case.violations v @ Invariant.store_replication env.Common.rt

let total_loss () =
  let env, store, script, output = store_checkpointed () in
  let v = Case.verdict () in
  (* every node's disk dies: no replica of any block survives *)
  for node = 0 to Simos.Cluster.nodes env.Common.cl - 1 do
    Store.drop_node store node
  done;
  if Dmtcp.Api.script_images_available env.Common.rt script then
    Case.fail v "images reported available with every replica lost";
  let (), events =
    Case.traced (fun () ->
        Dmtcp.Api.restart env.Common.rt script;
        Common.run_for env 5.0)
  in
  Case.clean_failure v ~what:"total replica loss" env events ~output:(output ());
  Case.violations v

let lazy_kill () =
  let env, _store, script, output = lazy_checkpointed () in
  let v = Case.verdict () in
  Dmtcp.Api.restart env.Common.rt script;
  Dmtcp.Api.await_restart env.Common.rt;
  (* threads are running but the prefetcher has only drained a few
     batches: most cold pages are still marked absent *)
  Common.run_for env 0.02;
  Simos.Cluster.crash_node env.Common.cl home;
  if Dmtcp.Runtime.hijacked_processes env.Common.rt <> [] then
    Case.fail v "hijacked processes survived a node crash";
  (* let time pass with the orphaned prefetcher still scheduled: it must
     notice the dead processes and stop without faulting *)
  Common.run_for env 1.0;
  Dmtcp.Api.restart env.Common.rt script;
  Dmtcp.Api.await_restart env.Common.rt;
  finishes v env ~what:"restart after mid-prefetch crash" output;
  Case.violations v @ Invariant.store_replication env.Common.rt

let stripe_drop () =
  let env, store, script, output = lazy_checkpointed () in
  let v = Case.verdict () in
  Dmtcp.Api.restart env.Common.rt script;
  (* the restarter is between its boot and memory-restore phases: drop
     two of the four nodes out from under the striped fetch.  Replicas
     land on three distinct nodes, so every block keeps a copy on node
     0 or on [home]. *)
  Common.run_for env 0.01;
  Store.drop_node store 2;
  Store.drop_node store 3;
  List.iter (Case.fail v "store verify after striped-replica loss: %s") (Store.verify store);
  Dmtcp.Api.await_restart env.Common.rt;
  finishes v env ~what:"restart across replica drop" output;
  Case.violations v
