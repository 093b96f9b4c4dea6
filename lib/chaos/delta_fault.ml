(* Delta-chain chaos: faults aimed at the incremental/forked fast path.

   Like [Store_fault], these scenarios live outside [Scenario.sample] so
   the pinned corpus's RNG draw order is untouched.  All three are
   deterministic.

   - [deep_chain]: checkpoint four times under incremental mode so the
     restart point is a depth-3 delta chain, kill the computation, and
     restart.  The recovered run's output must be byte-identical to the
     output of the same workload checkpointed with full images at the
     same cadence — deltas must be invisible to the computation.

   - [forked_crash]: crash the workload's node while a forked
     incremental checkpoint's background write is still in flight.  The
     restart must come back with the exact output — from the delta if
     its write landed, else by falling back to the newest
     fully-resolvable generation — or fail cleanly with exit 73 and the
     lost blocks named.  A wrong answer or a half-restored computation
     is the only failure.

   - [base_loss]: drop the store node holding the only replica of a
     delta's base generation.  [script_images_available] must report
     the chain unresolvable, and the restart must exit 73 cleanly:
     missing blocks named in the trace, nothing half-restored, no
     output. *)

module Common = Harness.Common

(* enough iterations (2 ms each) that the workload is still running
   after several spaced checkpoint rounds *)
let iters = 3000
let expected = Printf.sprintf "hog:%d" iters

(* ------------------------------------------------------------------ *)
(* deep_chain *)

(* launch, checkpoint [ckpts] times (a depth-(ckpts-1) chain under
   incremental mode), kill, restart, run to completion; returns the
   output and the restart script for shape assertions *)
let run_variant ~incremental ~out_path =
  let options =
    { Dmtcp.Options.default with Dmtcp.Options.incremental; delta_chain = 8 }
  in
  let env = Case.memhog ~options ~iters ~out_path in
  Dmtcp.Api.checkpoint_now env.Common.rt;
  for _ = 1 to 3 do
    Common.run_for env 0.2;
    Dmtcp.Api.checkpoint_now env.Common.rt
  done;
  let script = Dmtcp.Api.restart_script env.Common.rt in
  Dmtcp.Api.kill_computation env.Common.rt;
  Dmtcp.Api.restart env.Common.rt script;
  Dmtcp.Api.await_restart env.Common.rt;
  Case.run_until env ~within:30. (fun () -> Case.output env out_path <> None);
  (Case.output env out_path, script)

let deep_chain () =
  let v = Case.verdict () in
  let delta_out, delta_script = run_variant ~incremental:true ~out_path:"/data/df_delta" in
  let full_out, _ = run_variant ~incremental:false ~out_path:"/data/df_full" in
  let chain_depth_ok =
    List.exists
      (fun (_, paths) ->
        List.exists (fun p -> Filename.check_suffix p ".d3.dmtcp") paths)
      delta_script.Dmtcp.Restart_script.entries
  in
  if not chain_depth_ok then
    Case.fail v "incremental run did not leave a depth-3 chain (no .d3 image in the script)";
  (* both variants must finish with the unfaulted output, hence agree *)
  Case.expect v ~what:"delta-chain restart" ~want:expected delta_out;
  Case.expect v ~what:"full-image restart" ~want:expected full_out;
  Case.violations v

(* ------------------------------------------------------------------ *)
(* forked_crash, base_loss *)

let store_options ~forked ~replicas =
  {
    Dmtcp.Options.default with
    Dmtcp.Options.incremental = true;
    forked;
    delta_chain = 8;
    store = true;
    store_replicas = replicas;
    keep_generations = 3;
  }

let forked_crash () =
  let out_path = "/data/df_forked" in
  let env = Case.memhog ~options:(store_options ~forked:true ~replicas:2) ~iters ~out_path in
  let v = Case.verdict () in
  (* full checkpoint; wait for the forked background write to land so
     the next round's delta has a durable base *)
  Dmtcp.Api.checkpoint_now env.Common.rt;
  let store = Case.store_of env in
  Case.run_until env ~within:30. (fun () -> Store.manifests store <> []);
  if Store.manifests store = [] then Case.fail v "full checkpoint never landed in the store";
  Common.run_for env 0.3;
  (* delta checkpoint: blackout ends at the snapshot, the compression
     and store write run in the background child *)
  Dmtcp.Api.checkpoint_now env.Common.rt;
  let script = Dmtcp.Api.restart_script env.Common.rt in
  (* the node dies with that write still in flight *)
  Simos.Cluster.crash_node env.Common.cl Case.home;
  let (), events =
    Case.traced (fun () ->
        Dmtcp.Api.restart env.Common.rt script;
        Case.run_until env ~within:30. (fun () -> Case.output env out_path <> None))
  in
  (match Case.output env out_path with
  | Some got when got = expected ->
    (* recovered: either the delta landed and resolved, or the restart
       degraded to the durable full generation — the trace must show
       which, and one of the two must have happened *)
    if not (Case.saw events "rst/delta-resolve" || Case.saw events "rst/delta-fallback") then
      Case.fail v "restart recovered but the trace shows neither a delta resolve nor a fallback"
  | Some _ as got -> Case.expect v ~what:"restart after mid-forked crash" ~want:expected got
  | None ->
    (* no recovery: only a clean exit 73 naming the loss is acceptable *)
    Case.clean_failure v ~what:"restart after mid-forked crash" env events ~output:None);
  Case.violations v

let base_loss () =
  let out_path = "/data/df_base" in
  let env = Case.memhog ~options:(store_options ~forked:false ~replicas:1) ~iters ~out_path in
  let v = Case.verdict () in
  Dmtcp.Api.checkpoint_now env.Common.rt;
  Common.run_for env 0.3;
  Dmtcp.Api.checkpoint_now env.Common.rt;
  let script = Dmtcp.Api.restart_script env.Common.rt in
  Dmtcp.Api.kill_computation env.Common.rt;
  let store = Case.store_of env in
  (* sanity: the catalog must hold a delta manifest chained to a full
     base — otherwise this scenario is not testing what it claims *)
  (match
     List.find_opt (fun (m : Store.manifest) -> m.Store.m_base <> None) (Store.manifests store)
   with
  | None -> Case.fail v "no delta manifest in the catalog after two incremental checkpoints"
  | Some m -> (
    let base = Option.get m.Store.m_base in
    match Store.find store ~name:base with
    | None -> Case.fail v "delta's base %s is not catalogued" base
    | Some b when b.Store.m_base <> None -> Case.fail v "expected a full base, got a delta"
    | Some _ -> ()));
  (* the single replica of every block — base generation included — is
     on the writing node; lose it *)
  Store.drop_node store Case.home;
  if Dmtcp.Api.script_images_available env.Common.rt script then
    Case.fail v "images reported available with the delta's base generation gone";
  let (), events =
    Case.traced (fun () ->
        Dmtcp.Api.restart env.Common.rt script;
        Common.run_for env 5.0)
  in
  Case.clean_failure v ~what:"unresolvable delta chain" env events
    ~output:(Case.output env out_path);
  Case.violations v
