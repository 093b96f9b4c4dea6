type event = { mutable cancelled : bool; fn : unit -> unit }
type handle = event

(* Dispatch accounting shared by every engine in the process; reset with
   Trace.Metrics.reset alongside the rest of the registry. *)
let m_dispatches = Trace.Metrics.counter "sim.dispatches"
let m_scheduled = Trace.Metrics.counter "sim.scheduled"

type t = {
  mutable clock : float;
  queue : event Util.Heap.t;
  rng : Util.Rng.t;
  mutable live : int;
}

let create ?(seed = 0x5EEDL) () =
  { clock = 0.; queue = Util.Heap.create (); rng = Util.Rng.create seed; live = 0 }

let now t = t.clock
let rng t = t.rng

let schedule_at t ~time fn =
  if time < t.clock then invalid_arg "Engine.schedule_at: time in the past";
  let ev = { cancelled = false; fn } in
  Util.Heap.push t.queue ~priority:time ev;
  t.live <- t.live + 1;
  Trace.Metrics.incr m_scheduled;
  ev

let schedule t ~delay fn =
  if delay < 0. then invalid_arg "Engine.schedule: negative delay";
  schedule_at t ~time:(t.clock +. delay) fn

let cancel (ev : handle) = ev.cancelled <- true

let pending t =
  (* [live] over-counts cancelled-but-unpopped events; recompute lazily is
     unnecessary for its uses (emptiness checks in tests). *)
  t.live

(* Both loops read the minimum's time and then take the event, so a
   dispatch allocates nothing of its own. *)
let rec step t =
  if Util.Heap.is_empty t.queue then false
  else begin
    let time = Util.Heap.min_priority t.queue in
    let ev = Util.Heap.take t.queue in
    t.live <- t.live - 1;
    if ev.cancelled then step t
    else begin
      t.clock <- time;
      Trace.Metrics.incr m_dispatches;
      ev.fn ();
      true
    end
  end

let run ?until ?(max_events = 50_000_000) t =
  let count = ref 0 in
  let continue = ref true in
  while !continue do
    if Util.Heap.is_empty t.queue then continue := false
    else begin
      let time = Util.Heap.min_priority t.queue in
      match until with
      | Some limit when time > limit ->
        t.clock <- max t.clock limit;
        continue := false
      | _ ->
        let ev = Util.Heap.take t.queue in
        t.live <- t.live - 1;
        if not ev.cancelled then begin
          t.clock <- time;
          Trace.Metrics.incr m_dispatches;
          ev.fn ();
          incr count;
          if !count > max_events then failwith "Engine.run: max_events exceeded (livelock?)"
        end
    end
  done;
  match until with
  | Some limit when t.clock < limit && Util.Heap.is_empty t.queue -> t.clock <- limit
  | _ -> ()

let advance t ~delay = run ~until:(t.clock +. delay) t
