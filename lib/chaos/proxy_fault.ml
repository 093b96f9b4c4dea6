(* Rank/proxy-split chaos: the mpi-proxy plugin plus the proxy transport
   through a checkpoint → node-crash → restart cycle, with the crash
   landing *inside* a collective.  Like [Plugin_fault], these scenarios
   live outside [Scenario.sample] (no corpus RNG draws) and are
   deterministic.

   - [kill_mid_allreduce]: the bsp phase program with a designated
     straggler, proxy transport.  The checkpoint and the node crash both
     land while the non-straggler ranks sit inside the closing allreduce
     (bytes demonstrably in flight: the ledger shows sent > delivered).
     The crash takes out a worker node wholesale — its two ranks *and*
     its proxy daemon — so the surviving proxies are left holding stale
     custody that races the post-restart resend (the receive-side dedup
     and gap-drop paths).  The restarted run must produce a result file
     byte-identical to an unfaulted reference run.

   - [kill_mid_halo]: the Jacobi stencil mid-halo-exchange, same crash
     shape, same byte-identical verdict.  This one also pins the image
     shape: with the mpi-proxy plugin on, rank images carry no
     S_established socket and no drained bytes — the rank's only
     transport fd (the unix connection to its proxy) is demoted to an
     immediately-dead socket at capture. *)

module Common = Harness.Common

let sprintf = Printf.sprintf

let base_port = 6100
let nodes = 4
let rpn = 2
let nprocs = nodes * rpn
let crash_node = 1 (* worker node: ranks 2 and 3 plus its proxy daemon *)

let options_with plugins = { Dmtcp.Options.default with Dmtcp.Options.plugins }
let proxy_plugins = [ "ext-sock"; "mpi-proxy" ]

let workload ~prog ~extra =
  {
    Common.w_name = prog;
    w_kind = Common.Proxy;
    w_prog = prog;
    w_nprocs = nprocs;
    w_rpn = rpn;
    w_extra = extra;
    w_warmup = 0.05;
  }

(* bsp: 4 phases, every other one straggling for 0.8 s.  The phase-0
   straggler is rank 0 — the allreduce root — so for the whole straggle
   the other ranks' gather frames sit undelivered (the root is not
   pumping), which is where the mid-allreduce kill aims.  The straggle
   is long enough to cover the checkpoint protocol itself. *)
let bsp_extra = [ "4"; "4096"; "2"; "0.8" ]

(* stencil: deep halos and enough supersteps that a checkpoint a few
   tens of milliseconds in lands mid-exchange *)
let stencil_extra = [ "256"; "8"; "40"; "0.02" ]

let result_path ~short = sprintf "/result/%s-%d" short base_port

(* run until rank 0 writes the result file; its bytes *)
let result env ~short =
  let path = result_path ~short in
  Case.run_until env ~within:120. (fun () -> Case.output env ~node:0 path <> None);
  Case.output env ~node:0 path

(* run the workload with no fault at all and return the result bytes:
   the reference every faulted run must reproduce exactly *)
let reference_run ~prog ~extra ~short =
  Proxy.Accounting.reset ~base_port;
  let env = Common.setup ~nodes ~cores_per_node:2 ~options:(options_with proxy_plugins) () in
  Common.start_workload env (workload ~prog ~extra);
  let out = result env ~short in
  Common.teardown env;
  out

(* decode every image the restart script names: (established socket
   specs, drained bytes) summed over the job's rank images *)
let image_stats env (script : Dmtcp.Restart_script.t) =
  List.fold_left
    (fun (estab, drained) (host, paths) ->
      let vfs = Simos.Kernel.vfs (Simos.Cluster.kernel env.Common.cl host) in
      List.fold_left
        (fun (estab, drained) path ->
          match Simos.Vfs.lookup vfs path with
          | None -> (estab, drained)
          | Some f ->
            let image = Dmtcp.Ckpt_image.decode (Simos.Vfs.read_all f) in
            List.fold_left
              (fun (estab, drained) (_, _, info) ->
                match info with
                | Dmtcp.Ckpt_image.FSock { state = Dmtcp.Ckpt_image.S_established; drained = d; _ }
                  ->
                  (estab + 1, drained + String.length d)
                | Dmtcp.Ckpt_image.FSock { drained = d; _ } -> (estab, drained + String.length d)
                | _ -> (estab, drained))
              (estab, drained) image.Dmtcp.Ckpt_image.fds)
        (estab, drained) paths)
    (0, 0) script.Dmtcp.Restart_script.entries

(* checkpoint → run into the collective window → crash a worker node
   wholesale → kill the rest → restart.  Returns (result bytes,
   in-flight evidence at the crash instant, trace events, rank image
   stats at the checkpoint). *)
let faulted_run ~prog ~extra ~short ~window =
  Proxy.Accounting.reset ~base_port;
  let env = Common.setup ~nodes ~cores_per_node:2 ~options:(options_with proxy_plugins) () in
  Common.start_workload env (workload ~prog ~extra);
  (* into the collective window, then checkpoint mid-flight *)
  Common.run_for env window;
  let (out, in_flight, script), events =
    Case.traced (fun () ->
        Dmtcp.Api.checkpoint_now env.Common.rt;
        let script = Dmtcp.Api.restart_script env.Common.rt in
        (* let traffic move again, then sample the ledger and crash *)
        Common.run_for env 0.02;
        let in_flight = Proxy.Accounting.totals ~base_port in
        Simos.Cluster.crash_node env.Common.cl crash_node;
        Common.run_for env 0.1;
        Dmtcp.Api.kill_computation env.Common.rt;
        Dmtcp.Api.restart env.Common.rt script;
        Dmtcp.Api.await_restart env.Common.rt;
        (result env ~short, in_flight, script))
  in
  let images = image_stats env script in
  Common.teardown env;
  (out, in_flight, events, images)

(* the restarted result must exist and equal the unfaulted reference *)
let check_verdict v ~what ~reference ~faulted =
  match reference with
  | None -> Case.fail v "%s: the unfaulted reference run never produced a result" what
  | Some want ->
    Case.expect v ~what:(what ^ ": restarted result vs the no-fault reference") ~want faulted

let check_common v ~what (events, (estab, drained)) =
  if not (Case.saw events "plugin/mpi-proxy/fd-capture") then
    Case.fail v "%s: no mpi-proxy span at fd-capture" what;
  if not (Case.saw events "plugin/mpi-proxy/restart-rearrange") then
    Case.fail v "%s: no mpi-proxy span at restart-rearrange" what;
  (* the whole point of the split: rank images carry no live socket
     state and nothing drained *)
  if estab > 0 then
    Case.fail v "%s: %d established socket specs in proxy-backend rank images" what estab;
  if drained > 0 then Case.fail v "%s: %d drained bytes in proxy-backend rank images" what drained

let kill_mid_allreduce () =
  let v = Case.verdict () in
  let reference = reference_run ~prog:Apps.Stencil.bsp_prog ~extra:bsp_extra ~short:"bsp" in
  let faulted, (sent, delivered, _), events, images =
    (* just past warmup: inside phase 0's straggle window, the
       non-root ranks parked in the allreduce with their gather frames
       undeliverable until the root resumes pumping *)
    faulted_run ~prog:Apps.Stencil.bsp_prog ~extra:bsp_extra ~short:"bsp" ~window:0.02
  in
  if sent <= delivered then
    Case.fail v
      "mid-allreduce crash found nothing in flight (sent %d, delivered %d) — the kill missed \
       the collective"
      sent delivered;
  check_common v ~what:"mid-allreduce" (events, images);
  check_verdict v ~what:"mid-allreduce" ~reference ~faulted;
  Case.violations v

let kill_mid_halo () =
  let v = Case.verdict () in
  let reference =
    reference_run ~prog:Apps.Stencil.stencil_prog ~extra:stencil_extra ~short:"stencil"
  in
  let faulted, (sent, delivered, _), events, images =
    faulted_run ~prog:Apps.Stencil.stencil_prog ~extra:stencil_extra ~short:"stencil"
      ~window:0.02
  in
  if sent = 0 then Case.fail v "mid-halo crash saw no traffic at all (sent 0)";
  if delivered > sent then
    Case.fail v "ledger inversion at the crash instant: delivered %d > sent %d" delivered sent;
  check_common v ~what:"mid-halo" (events, images);
  check_verdict v ~what:"mid-halo" ~reference ~faulted;
  Case.violations v

(* ------------------------------------------------------------------ *)
(* CLI surface: `dmtcp_sim mpi chaos` prints one verdict line per
   scenario, which ci.sh can diff across runs. *)

let scenario_names = [ "mid-allreduce"; "mid-halo" ]

let run_scenario ~name =
  let violations =
    match name with
    | "mid-allreduce" -> kill_mid_allreduce ()
    | "mid-halo" -> kill_mid_halo ()
    | _ -> invalid_arg (sprintf "unknown proxy scenario %S" name)
  in
  match violations with
  | [] -> sprintf "%s: bit-identical" name
  | vs -> sprintf "%s: %d violations: %s" name (List.length vs) (String.concat "; " vs)
