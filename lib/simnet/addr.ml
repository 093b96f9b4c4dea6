type host = int

type t =
  | Inet of { host : host; port : int }
  | Unix of { host : host; path : string }

let host_of = function
  | Inet { host; _ } -> host
  | Unix { host; _ } -> host

let to_string = function
  | Inet { host; port } -> Printf.sprintf "10.0.0.%d:%d" host port
  | Unix { host; path } -> Printf.sprintf "unix[%d]:%s" host path

let codec =
  Util.Codec.(
    variant "addr" (fun inet unix w -> function
      | Inet { host; port } -> inet w host port
      | Unix { host; path } -> unix w host path)
    |> case 0 [ uvarint; uvarint ] (fun host port -> Inet { host; port })
    |> case 1 [ uvarint; string ] (fun host path -> Unix { host; path })
    |> sealv)
