(* The scale scenario: a thousand small jobs on a 64-node cluster,
   pushed through all three checkpoint-driven policies at once.

     t=0   1000 single-node counter jobs, prio 1 — far more work than
           nodes, so the queue stays deep for the whole run
     t=2   a batch of prio-5 jobs arrives -> preempts running prio-1
           work; the victims checkpoint to the store and requeue
     t=4   a node hosting running jobs fail-stops (store replicas
           dropped too) -> its jobs self-heal from their newest
           surviving checkpoints
     t=6   a node is drained -> its jobs migrate by checkpoint +
           remap + restart

   With every job on its own coordinator domain, the interval
   checkpoints of the ~40 concurrently running jobs all go through the
   op queues at once — this is the scenario behind the
   [sched.ops-inflight] and [sched.makespan-1000job] bench records
   ([~max_inflight:1] reproduces the old serialized scheduler as the
   baseline).

   [run ~faults:false] replays the same submissions (including the
   preemptor batch) without the node failure and the drain; [check]
   compares the faulted run against that reference: every job must
   finish with bit-identical output.

   The canned three-job scenario ([Sched_demo]) and the seeded corpus
   ([Sched_fault]) are built from the same parts: [boot], [inject],
   [finish] and [job_verdict]. *)

module Common = Harness.Common

let sprintf = Printf.sprintf

type result = {
  k_env : Common.env;
  k_sched : Sched.Scheduler.t;
  k_unfinished : int;
  k_outputs : (int * (string * string) list) list;  (* job id -> verdicts *)
}

let default_jobs = 1000
let default_nodes = 64
let preempt_at = 2.0
let fail_at = 4.0
let drain_at = 6.0

let options () =
  {
    Dmtcp.Options.default with
    Dmtcp.Options.store = true;
    store_replicas = 2;
    keep_generations = 2;
  }

(* [nodes] counters of [target] steps, one per node; the [i]th writes
   its verdict to [out]_[i] *)
let counter_job ~out ~name ~nodes ~priority ~target =
  let out i = sprintf "%s_%d" out i in
  {
    Sched.Job.sp_name = name;
    sp_nodes = nodes;
    sp_priority = priority;
    sp_est_runtime = float_of_int target *. 1e-3;
    sp_procs = nodes;
    sp_launch =
      (fun a ->
        List.init nodes (fun i ->
            (a.(i), "p:counter", [ string_of_int target; out i ])));
    sp_outputs = (fun a -> List.init nodes (fun i -> (a.(i), out i)));
  }

let counter_spec ~name = counter_job ~out:("/data/" ^ name) ~name

(* a node currently hosting a Running job (first by job id, last slot) *)
let victim_node sched =
  let running =
    List.find_opt
      (fun (j : Sched.Job.t) -> j.Sched.Job.phase = Sched.Job.Running && j.Sched.Job.alloc <> None)
      (Sched.Scheduler.jobs sched)
  in
  match running with
  | Some { Sched.Job.alloc = Some a; _ } -> Some a.(Array.length a - 1)
  | _ -> None

(* a cluster of [nodes] two-core nodes with the store-backed options and
   a scheduler over it *)
let boot ~nodes ~ckpt_interval ?max_inflight () =
  Progs.ensure_registered ();
  let env = Common.setup ~nodes ~cores_per_node:2 ~options:(options ()) () in
  (env, Sched.Scheduler.create ~ckpt_interval ?max_inflight env.Common.cl env.Common.rt)

(* Schedule a node fail-stop and a drain.  Each is a time and a picker
   that names the node at that instant, or none to skip the fault. *)
let inject env sched ?fail ?drain () =
  let eng = Simos.Cluster.engine env.Common.cl in
  let at act (time, pick) =
    ignore (Sim.Engine.schedule_at eng ~time (fun () -> Option.iter (act sched) (pick ())))
  in
  Option.iter (at Sched.Scheduler.fail_node) fail;
  Option.iter (at Sched.Scheduler.drain) drain

(* run the scheduler to [until] and collect every job's verdicts *)
let finish env sched ~until =
  let unfinished = Sched.Scheduler.run ~until sched in
  let outputs =
    List.map
      (fun (j : Sched.Job.t) -> (j.Sched.Job.id, j.Sched.Job.outputs))
      (Sched.Scheduler.jobs sched)
  in
  { k_env = env; k_sched = sched; k_unfinished = unfinished; k_outputs = outputs }

let run ?(jobs = default_jobs) ?(nodes = default_nodes) ?(faults = true) ?(max_inflight = 0)
    ?(ckpt_interval = 0.25) () =
  let env, sched = boot ~nodes ~ckpt_interval ~max_inflight () in
  let eng = Simos.Cluster.engine env.Common.cl in
  for i = 0 to jobs - 1 do
    (* staggered durations (0.6–0.96 s) so finishes spread over the run
       instead of freeing whole cohorts at once *)
    let target = 600 + (10 * (i mod 37)) in
    ignore
      (Sched.Scheduler.submit sched
         (counter_spec ~name:(sprintf "j%04d" i) ~nodes:1 ~priority:1 ~target))
  done;
  (* the preemptor batch is part of the workload, so it runs in the
     no-fault reference too; each wants a quarter of the cluster, far
     more than the staggered finishes free in any tick, so victims
     must be preempted *)
  let pre_nodes = max 2 (nodes / 8) in
  ignore
    (Sim.Engine.schedule_at eng ~time:preempt_at (fun () ->
         for i = 0 to 3 do
           ignore
             (Sched.Scheduler.submit sched
                (counter_spec ~name:(sprintf "pre%d" i) ~nodes:pre_nodes ~priority:5 ~target:800))
         done));
  if faults then begin
    let victim () = victim_node sched in
    inject env sched ~fail:(fail_at, victim) ~drain:(drain_at, victim) ()
  end;
  finish env sched ~until:3600.

let outputs_text outs = String.concat ";" (List.map (fun (p, v) -> p ^ "=" ^ v) outs)

(* The faulted run against its no-fault reference: both runs finished,
   every faulted job ended Done, the scheduler's own invariants hold,
   and both runs hold the same jobs with byte-identical verdicts. *)
let job_verdict ~reference faulted =
  let v = Case.verdict () in
  if reference.k_unfinished > 0 then
    Case.fail v "reference run left %d job(s) unfinished" reference.k_unfinished;
  if faulted.k_unfinished > 0 then begin
    Case.fail v "faulted run left %d job(s) unfinished" faulted.k_unfinished;
    List.iter (Case.fail v "  %s") (Sched.Scheduler.status_lines faulted.k_sched)
  end;
  List.iter
    (fun (j : Sched.Job.t) ->
      match j.Sched.Job.phase with
      | Sched.Job.Done -> ()
      | p ->
        Case.fail v "job %d (%s) ended %s" j.Sched.Job.id j.Sched.Job.spec.Sched.Job.sp_name
          (Sched.Job.phase_name p))
    (Sched.Scheduler.jobs faulted.k_sched);
  List.iter (Case.fail v "sched invariant: %s") (Sched.Scheduler.violations faulted.k_sched);
  List.iter
    (fun (id, outs) ->
      match List.assoc_opt id faulted.k_outputs with
      | None -> Case.fail v "job %d missing from faulted run" id
      | Some outs' when outs' <> outs ->
        Case.fail v "job %d output diverged from no-fault reference (%s vs %s)" id
          (outputs_text outs) (outputs_text outs')
      | Some _ -> ())
    reference.k_outputs;
  List.iter
    (fun (id, _) ->
      if not (List.mem_assoc id reference.k_outputs) then
        Case.fail v "job %d absent from reference run" id)
    faulted.k_outputs;
  Case.violations v

(* [job_verdict], plus: all three policies actually fired, and the store
   and cluster invariants hold after the faulted run. *)
let check ~reference faulted =
  let s = faulted.k_sched in
  let v = Case.verdict () in
  if Sched.Scheduler.preemptions s < 1 then
    Case.fail v "no preemption happened (the prio-5 arrival displaced nobody)";
  if Sched.Scheduler.node_failures s < 1 then Case.fail v "node failure was never injected";
  if Sched.Scheduler.drains s < 1 then Case.fail v "drain was never injected";
  if Sched.Scheduler.restarts s < 1 then
    Case.fail v "no job ever restarted from a checkpoint image";
  job_verdict ~reference faulted
  @ Case.violations v
  @ Invariant.store_replication faulted.k_env.Common.rt
  @ Invariant.quiescent faulted.k_env

let summary (r : result) =
  let s = r.k_sched in
  let done_, failed =
    List.fold_left
      (fun (d, f) (j : Sched.Job.t) ->
        match j.Sched.Job.phase with
        | Sched.Job.Done -> (d + 1, f)
        | Sched.Job.Failed _ -> (d, f + 1)
        | _ -> (d, f))
      (0, 0) (Sched.Scheduler.jobs s)
  in
  [
    sprintf "jobs %d  done %d  failed %d  unfinished %d"
      (List.length (Sched.Scheduler.jobs s))
      done_ failed r.k_unfinished;
    sprintf "preemptions %d  node-failures %d  drains %d  restarts %d  relaunches %d"
      (Sched.Scheduler.preemptions s) (Sched.Scheduler.node_failures s)
      (Sched.Scheduler.drains s) (Sched.Scheduler.restarts s)
      (Sched.Scheduler.relaunches s);
    sprintf "makespan %.2fs  lost-work %.2fs  peak-ops-inflight %d"
      (Sched.Scheduler.makespan s) (Sched.Scheduler.total_lost_work s)
      (Sched.Scheduler.peak_ops_inflight s);
  ]
