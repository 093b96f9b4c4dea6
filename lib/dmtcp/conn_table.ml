type role = Connector | Acceptor | Pair_a | Pair_b

type sock_kind = Tcp | Unixsock | Pair

type entry = {
  mutable conn_id : Conn_id.t;
  mutable role : role;
  kind : sock_kind;
  desc_id : int;
  mutable drained : string;
  mutable eof : bool;
  mutable saved_owner : int;
}

type t = (int, entry) Hashtbl.t

let create () = Hashtbl.create 8
let add t ~fd entry = Hashtbl.replace t fd entry
let find t ~fd = Hashtbl.find_opt t fd
let remove t ~fd = Hashtbl.remove t fd

let entries t =
  Hashtbl.fold (fun fd e acc -> (fd, e) :: acc) t [] |> List.sort (fun (a, _) (b, _) -> compare a b)

let unique_descs t =
  let seen = Hashtbl.create 8 in
  entries t
  |> List.filter (fun (_, e) ->
         if Hashtbl.mem seen e.desc_id then false
         else begin
           Hashtbl.add seen e.desc_id ();
           true
         end)

let clone t =
  let c = Hashtbl.create (Hashtbl.length t) in
  Hashtbl.iter (fun fd e -> Hashtbl.replace c fd { e with drained = e.drained }) t;
  c

let role_codec = Util.Codec.enum "conn role" [| Connector; Acceptor; Pair_a; Pair_b |]
let kind_codec = Util.Codec.enum "sock kind" [| Tcp; Unixsock; Pair |]

let entry_codec =
  Util.Codec.(
    record (fun conn_id role kind desc_id drained eof saved_owner ->
        { conn_id; role; kind; desc_id; drained; eof; saved_owner })
    |> field Conn_id.codec (fun e -> e.conn_id)
    |> field role_codec (fun e -> e.role)
    |> field kind_codec (fun e -> e.kind)
    |> field uvarint (fun e -> e.desc_id)
    |> field string (fun e -> e.drained)
    |> field bool (fun e -> e.eof)
    |> field varint (fun e -> e.saved_owner)
    |> seal)

(* (fd, entry) pairs in fd order *)
let codec =
  Util.Codec.(
    map
      (list (pair uvarint entry_codec))
      (fun pairs ->
        let t = create () in
        List.iter (fun (fd, e) -> add t ~fd e) pairs;
        t)
      entries)
