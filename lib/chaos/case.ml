(* The scaffolding every deterministic fault family shares ([Store_fault],
   [Delta_fault], [Plugin_fault], [Proxy_fault]): read a workload's
   output file, run the simulation until a condition holds, record a
   trace, and accumulate violations.

   A scenario returns its violations in the order they were found; the
   empty list is a pass. *)

module Common = Harness.Common

(* node the single-node workloads run (and restart) on; the
   coordinator is on node 0 *)
let home = 1

(* contents of [path] on [node], once the workload has written it *)
let output ?(node = home) env path =
  match Simos.Vfs.lookup (Simos.Kernel.vfs (Simos.Cluster.kernel env.Common.cl node)) path with
  | Some f -> Some (Simos.Vfs.read_all f)
  | None -> None

(* run in 0.1 s slices until [pred] holds or [within] more simulated
   seconds have passed *)
let run_until env ~within pred =
  let deadline = Simos.Cluster.now env.Common.cl +. within in
  while (not (pred ())) && Simos.Cluster.now env.Common.cl < deadline do
    Common.run_for env 0.1
  done

(* a 4-node cluster under [options], 0.5 s into memhog on [home]: 8 MB
   resident, [iters] 2 ms steps, output written only at completion *)
let memhog ~options ~iters ~out_path =
  Progs.ensure_registered ();
  let env = Common.setup ~nodes:4 ~cores_per_node:2 ~options () in
  ignore
    (Dmtcp.Api.launch env.Common.rt ~node:home ~prog:"p:memhog"
       ~argv:[ "8"; string_of_int iters; out_path ]);
  Common.run_for env 0.5;
  env

let store_of env =
  match Dmtcp.Runtime.store env.Common.rt with
  | Some s -> s
  | None -> failwith "chaos: runtime installed without the store"

(* [f ()] with a trace collector attached: its result and the events *)
let traced f =
  let col = Trace.collector () in
  let r = Trace.with_sink (Trace.collector_sink col) f in
  (r, Trace.events col)

let saw events name = List.exists (fun (e : Trace.event) -> e.Trace.name = name) events

let args_of events name =
  List.filter_map
    (fun (e : Trace.event) -> if e.Trace.name = name then Some e.Trace.args else None)
    events

let exit_codes events = List.filter_map (List.assoc_opt "code") (args_of events "proc/exit")

(* ------------------------------------------------------------------ *)
(* Verdicts *)

type verdict = { mutable found : string list (* newest first *) }

let verdict () = { found = [] }
let fail v fmt = Printf.ksprintf (fun m -> v.found <- m :: v.found) fmt
let violations v = List.rev v.found

(* the run must have finished with exactly [want] *)
let expect v ~what ~want got =
  match got with
  | Some g when g = want -> ()
  | Some g -> fail v "%s: expected %S, got %S" what want g
  | None -> fail v "%s: never finished (no output)" what

(* A restart that cannot succeed must fail cleanly: the restarter exits
   73 with the lost blocks named in a missing-blocks report, no process
   is left half-restored, and the workload writes nothing. *)
let clean_failure v ~what env events ~output =
  let codes = exit_codes events in
  if not (List.mem "73" codes) then
    fail v "%s: restarter did not exit 73 (saw exits: %s)" what (String.concat "," codes);
  (match args_of events "rst/missing-blocks" with
  | [] -> fail v "%s: no missing-blocks report from the restarter" what
  | args :: _ ->
    if Option.value ~default:"" (List.assoc_opt "blocks" args) = "" then
      fail v "%s: missing-blocks report does not name the lost blocks" what);
  if Dmtcp.Runtime.hijacked_processes env.Common.rt <> [] then
    fail v "%s: processes half-restored after a failed (exit 73) restart" what;
  if output <> None then fail v "%s: output produced despite unrecoverable images" what
