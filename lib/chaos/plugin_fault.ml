(* Heuristic-plugin chaos: each of the paper's open-world heuristics
   (SNIPPETS.md §2) run as a plugin through a full
   checkpoint → kill → restart cycle, with the kill landing *between*
   the heuristic's hook stages.  Like [Store_fault]/[Delta_fault], these
   live outside [Scenario.sample] so the pinned corpus's RNG draw order
   is untouched; all are deterministic.

   - [blacklist_skip]: a client/server pair on port 53.  Plugin on: the
     connection is skipped at drain (hook [drain-select]), demoted to a
     dead socket in the image (hook [fd-capture]), and the kill fires at
     the drain stage of a *second* round — after the round's capture
     hooks ran, before its write hooks.  Restarted from round one, the
     client must detect the dead socket and finish every lookup in
     fallback mode, with zero discovery specs (no 5 s external-peer
     stall).  Plugin off: the same connection is drained and restored,
     and the run finishes live, byte-identical to an unfaulted run.

   - [proc_repoint]: a program holding an fd on /proc/<pid>/status
     across the restart.  Plugin on: hook [restart-rearrange] re-points
     the fd at the restarted pid and the final self-inspection is
     byte-identical to the unfaulted run.  Plugin off: the fd still
     names the dead pid's file and the program reports a stale
     identity.

   - [shm_zero]: an app doing lookups through an NSCD-style shared
     segment under /var/db/nscd.  Plugin on: hook [image-write] zeroes
     the segment in the image only — the same round's *live* run must
     still finish warm (the capture aliases live pages; zeroing through
     the alias would corrupt the running service) — and the restarted
     run detects the zeroed header and degrades cleanly.  Plugin off:
     the cache survives the restart verbatim. *)

module Common = Harness.Common

let sprintf = Printf.sprintf
let home = Case.home

(* How a cycle ends after its first checkpoint.  [Live]: the run just
   continues.  [Kill]: an orderly kill, then a restart from the images.
   [Stage_kill s]: a second round is started and the whole computation
   is killed the moment any manager reaches stage [s] — between that
   stage's pre hooks and the next stage's — then restarted from the
   first round's images. *)
type ending = Live | Kill | Stage_kill of Dmtcp.Faults.stage

(* start a second round and kill it at [stage].  The kill is scheduled
   at the current virtual time so the notifying step retires cleanly
   (same pattern as the torture runner). *)
let stage_kill env stage =
  let fired = ref false in
  Dmtcp.Faults.on_stage :=
    (fun ~node:_ ~pid:_ s ->
      if s = stage && not !fired then begin
        fired := true;
        ignore
          (Sim.Engine.schedule
             (Simos.Cluster.engine env.Common.cl)
             ~delay:0.
             (fun () -> Dmtcp.Api.kill_computation env.Common.rt))
      end);
  Fun.protect
    ~finally:(fun () -> Dmtcp.Faults.on_stage := Dmtcp.Faults.default_observer)
    (fun () ->
      Dmtcp.Api.checkpoint env.Common.rt;
      Case.run_until env ~within:30. (fun () ->
          !fired && Dmtcp.Runtime.hijacked_processes env.Common.rt = []))

(* A heuristic's workload: its plugin, how to launch it writing its
   verdict line to a given path, how long it runs before the checkpoint,
   and that path. *)
type heuristic = {
  plugin : string;
  launch : Common.env -> string -> unit;
  warmup : float;
  out_path : string;
}

(* One full cycle with exactly ext-sock, plus [h.plugin] when [on]
   (built-ins are always registered): launch, warm up, checkpoint, end
   as [ending], run out.  Returns the verdict line, the trace events
   from the checkpoint on, and the restart's duration. *)
let cycle h ~on ~ending =
  Progs.ensure_registered ();
  Heuristic_progs.ensure_registered ();
  let plugins = if on then [ "ext-sock"; h.plugin ] else [ "ext-sock" ] in
  let options = { Dmtcp.Options.default with Dmtcp.Options.plugins } in
  let env = Common.setup ~nodes:4 ~cores_per_node:2 ~options () in
  let rt = env.Common.rt in
  h.launch env h.out_path;
  Common.run_for env h.warmup;
  let restart_secs, events =
    Case.traced (fun () ->
        Dmtcp.Api.checkpoint_now rt;
        let script = Dmtcp.Api.restart_script rt in
        let restart () =
          Dmtcp.Api.restart rt script;
          Dmtcp.Api.await_restart rt
        in
        (match ending with
        | Live -> ()
        | Kill ->
          Dmtcp.Api.kill_computation rt;
          restart ()
        | Stage_kill stage ->
          stage_kill env stage;
          restart ());
        let secs = Dmtcp.Api.last_restart_seconds rt in
        Case.run_until env ~within:60. (fun () -> Case.output env h.out_path <> None);
        secs)
  in
  (Case.output env h.out_path, events, restart_secs)

(* ------------------------------------------------------------------ *)
(* blacklist_skip *)

let dns_count = 1200

let dns =
  {
    plugin = "blacklist-ports";
    warmup = 0.6;
    out_path = "/data/pf_dns";
    launch =
      (fun env out ->
        ignore (Dmtcp.Api.launch env.Common.rt ~node:2 ~prog:"p:dnssrv" ~argv:[ "53" ]);
        Common.run_for env 0.3;
        ignore
          (Dmtcp.Api.launch env.Common.rt ~node:home ~prog:"p:dnscli"
             ~argv:[ "2"; "53"; string_of_int dns_count; out ]));
  }

let blacklist_skip () =
  let v = Case.verdict () in
  (* second round killed at its drain stage: after its capture hooks,
     before its write hooks *)
  let verdict_on, events, restart_secs =
    cycle dns ~on:true ~ending:(Stage_kill Dmtcp.Faults.Drain)
  in
  Case.expect v ~what:"blacklisted restart (clean degradation)"
    ~want:(sprintf "dns:%d degraded" dns_count) verdict_on;
  if not (Case.saw events "plugin/blacklist-ports/drain-select") then
    Case.fail v "no blacklist-ports span at drain-select";
  if not (Case.saw events "plugin/blacklist-ports/fd-capture") then
    Case.fail v "no blacklist-ports span at fd-capture";
  (* the demoted connection must leave no discovery spec behind: restart
     proceeds without the 5 s external-peer deadline *)
  (match Case.args_of events "rst/sockets-done" with
  | args :: _ ->
    if List.assoc_opt "external" args <> Some "0" then
      Case.fail v "blacklisted connection still went through external discovery";
    if List.assoc_opt "timed_out" args <> Some "false" then
      Case.fail v "restart waited out the discovery deadline for a blacklisted connection"
  | [] -> Case.fail v "no sockets-done record in the restart trace");
  if restart_secs >= 4.0 then
    Case.fail v "restart stalled %.1f s — the blacklist skip should avoid the discovery wait"
      restart_secs;
  (* plugin off: the same connection is drained/refilled like any
     internal one and the run finishes live, identical to a run that was
     never checkpointed *)
  let verdict_off, _, _ = cycle dns ~on:false ~ending:Kill in
  Case.expect v ~what:"plugin-off restart (bit-identical, live)"
    ~want:(sprintf "dns:%d live" dns_count) verdict_off;
  Case.violations v

(* ------------------------------------------------------------------ *)
(* proc_repoint *)

let proc_iters = 2500

let procfd =
  {
    plugin = "proc-fd";
    warmup = 0.8;
    out_path = "/data/pf_proc";
    launch =
      (fun env out ->
        ignore
          (Dmtcp.Api.launch env.Common.rt ~node:home ~prog:"p:procfd"
             ~argv:[ string_of_int proc_iters; out ]));
  }

let proc_repoint () =
  let v = Case.verdict () in
  (* second round killed between its write hooks and its resume hooks:
     the fds were already re-captured when the kill lands *)
  let verdict_on, events, _ = cycle procfd ~on:true ~ending:(Stage_kill Dmtcp.Faults.Refill) in
  Case.expect v ~what:"proc-fd restart (bit-identical to the unfaulted run)"
    ~want:(sprintf "PROC OK %d" proc_iters) verdict_on;
  if not (Case.saw events "plugin/proc-fd/restart-rearrange") then
    Case.fail v "no proc-fd span at restart-rearrange";
  (* plugin off: the held fd keeps naming the dead pid's file *)
  let verdict_off, _, _ = cycle procfd ~on:false ~ending:Kill in
  Case.expect v ~what:"plugin-off proc restart (stale fd)"
    ~want:(sprintf "PROC STALE %d" proc_iters) verdict_off;
  Case.violations v

(* ------------------------------------------------------------------ *)
(* shm_zero *)

let shm_lookups = 2500

let extshm =
  {
    plugin = "ext-shm";
    warmup = 0.8;
    out_path = "/data/pf_shm";
    launch =
      (fun env out ->
        ignore
          (Dmtcp.Api.launch env.Common.rt ~node:home ~prog:"p:nscdapp"
             ~argv:[ string_of_int shm_lookups; out ]));
  }

let shm_zero () =
  let v = Case.verdict () in
  (* restarted run, second round killed right after its image-write
     hook ran: zeroed segment, clean degradation *)
  let verdict_on, events, _ = cycle extshm ~on:true ~ending:(Stage_kill Dmtcp.Faults.Refill) in
  Case.expect v ~what:"ext-shm restart (zeroed segment degrades cleanly)"
    ~want:(sprintf "nscd:%d degraded" shm_lookups) verdict_on;
  if not (Case.saw events "plugin/ext-shm/image-write") then
    Case.fail v "no ext-shm span at image-write";
  (* same plugin, no kill: the checkpointed-but-running app must stay
     warm — zeroing leaked through the page alias otherwise *)
  let verdict_live, _, _ = cycle extshm ~on:true ~ending:Live in
  Case.expect v ~what:"live run after an ext-shm checkpoint (cache lost: alias leak?)"
    ~want:(sprintf "nscd:%d cached" shm_lookups) verdict_live;
  (* plugin off: the segment is captured verbatim and the cache survives *)
  let verdict_off, _, _ = cycle extshm ~on:false ~ending:Kill in
  Case.expect v ~what:"plugin-off shm restart (cache survives)"
    ~want:(sprintf "nscd:%d cached" shm_lookups) verdict_off;
  Case.violations v

(* ------------------------------------------------------------------ *)
(* CLI surface: `dmtcp_sim plugins run` prints one verdict line per
   heuristic per plugin setting, which ci.sh diffs across on/off. *)

let heuristics = [ ("blacklist", dns); ("procfd", procfd); ("extshm", extshm) ]
let heuristic_names = List.map fst heuristics

let run_heuristic ~name ~plugins_on =
  match List.assoc_opt name heuristics with
  | Some h ->
    let verdict, _, _ = cycle h ~on:plugins_on ~ending:Kill in
    Option.value verdict ~default:"<no verdict>"
  | None -> invalid_arg (sprintf "unknown heuristic %S" name)
