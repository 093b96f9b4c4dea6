type t = { hostid : int; pid : int; timestamp : float; seq : int }

let make ~hostid ~pid ~timestamp ~seq = { hostid; pid; timestamp; seq }
let to_key t = Printf.sprintf "conn:%d:%d:%h:%d" t.hostid t.pid t.timestamp t.seq
let equal a b = a = b

let codec =
  Util.Codec.(
    record (fun hostid pid timestamp seq -> { hostid; pid; timestamp; seq })
    |> field uvarint (fun t -> t.hostid)
    |> field uvarint (fun t -> t.pid)
    |> field f64 (fun t -> t.timestamp)
    |> field uvarint (fun t -> t.seq)
    |> seal)
