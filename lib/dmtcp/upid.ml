type t = { hostid : int; pid : int; generation : int }

let make ~hostid ~pid ~generation = { hostid; pid; generation }
let to_string t = Printf.sprintf "%d-%d-g%d" t.hostid t.pid t.generation
let next_generation t = { t with generation = t.generation + 1 }

(* (hostid, pid) without the generation: stable across restarts, so it
   names the chain of checkpoint generations belonging to one logical
   process — the retention unit of the store's GC. *)
let lineage t = Printf.sprintf "%d-%d" t.hostid t.pid

let encode w t =
  Util.Codec.Writer.uvarint w t.hostid;
  Util.Codec.Writer.uvarint w t.pid;
  Util.Codec.Writer.uvarint w t.generation

let decode r =
  let hostid = Util.Codec.Reader.uvarint r in
  let pid = Util.Codec.Reader.uvarint r in
  let generation = Util.Codec.Reader.uvarint r in
  { hostid; pid; generation }

let codec = Util.Codec.v encode decode
