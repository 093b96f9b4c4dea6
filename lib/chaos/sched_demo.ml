(* The canned scheduler scenario: three jobs on an eight-node cluster,
   exercising all three checkpoint-driven policies in one run.

     t=0   job 0 "stream"  prio 1, 2 nodes  (server/client TCP pair)
           job 1 "long"    prio 1, 2 nodes  (two counters)
     t=2   job 2 "big"     prio 5, 6 nodes  -> preempts the youngest
           prio-1 job; the victim checkpoints to the store and requeues
     t=5   a node hosting a running job fail-stops (disk replicas
           dropped too) -> the job self-heals from its newest surviving
           checkpoint on fresh nodes
     t=8   a node hosting a running job is drained -> the job migrates
           by checkpoint + remap + restart

   [run ~faults:false] replays the same submissions without the node
   failure and the drain; [Sched_demo1k.check] compares the faulted run
   against that reference: every job must finish with bit-identical
   output. *)

module Common = Harness.Common
module K = Sched_demo1k

let sprintf = Printf.sprintf
let nodes = 8
let fail_at = 5.0
let drain_at = 8.0

(* a server/client TCP pair streaming [count] records; the server writes
   its verdict to [out] *)
let stream_spec ~name ~out ~priority ~count ~port =
  {
    Sched.Job.sp_name = name;
    sp_nodes = 2;
    sp_priority = priority;
    sp_est_runtime = float_of_int count *. 2e-4;
    sp_procs = 2;
    sp_launch =
      (fun a ->
        [
          (a.(0), "p:stream-server", [ string_of_int port; string_of_int count; out ]);
          (a.(1), "p:stream-client", [ string_of_int a.(0); string_of_int port; string_of_int count ]);
        ]);
    sp_outputs = (fun a -> [ (a.(0), out) ]);
  }

(* the first job currently holding nodes, preferring Running ones *)
let victim_node sched =
  let pick phase_ok =
    List.find_opt
      (fun (j : Sched.Job.t) -> phase_ok j.Sched.Job.phase && j.Sched.Job.alloc <> None)
      (Sched.Scheduler.jobs sched)
  in
  let last (j : Sched.Job.t) = Option.map (fun a -> a.(Array.length a - 1)) j.Sched.Job.alloc in
  match pick (fun p -> p = Sched.Job.Running) with
  | Some j -> last j
  | None -> Option.bind (pick Sched.Job.occupies_nodes) last

let run ?(faults = true) ?(ckpt_interval = 1.0) () =
  let env, sched = K.boot ~nodes ~ckpt_interval () in
  let eng = Simos.Cluster.engine env.Common.cl in
  ignore
    (Sched.Scheduler.submit sched (stream_spec ~name:"stream" ~out:"/data/stream" ~priority:1 ~count:20000 ~port:6200));
  ignore
    (Sched.Scheduler.submit sched (K.counter_spec ~name:"long" ~nodes:2 ~priority:1 ~target:8000));
  ignore
    (Sim.Engine.schedule_at eng ~time:2.0 (fun () ->
         ignore
           (Sched.Scheduler.submit sched
              (K.counter_spec ~name:"big" ~nodes:6 ~priority:5 ~target:2000))));
  if faults then begin
    let victim () = victim_node sched in
    K.inject env sched ~fail:(fail_at, victim) ~drain:(drain_at, victim) ()
  end;
  K.finish env sched ~until:120.

let summary (r : K.result) =
  let s = r.K.k_sched in
  Sched.Scheduler.status_lines s
  @ [
      sprintf "preemptions %d  node-failures %d  drains %d  restarts %d  relaunches %d"
        (Sched.Scheduler.preemptions s) (Sched.Scheduler.node_failures s)
        (Sched.Scheduler.drains s) (Sched.Scheduler.restarts s)
        (Sched.Scheduler.relaunches s);
      sprintf "makespan %.2fs  lost-work %.2fs" (Sched.Scheduler.makespan s)
        (Sched.Scheduler.total_lost_work s);
    ]
