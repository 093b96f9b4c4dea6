type fd_info =
  | FFile of { path : string; offset : int }
  | FSock of {
      state : sock_state;
      kind : Conn_table.sock_kind;
      role : Conn_table.role;
      conn_id : Conn_id.t;
      drained : string;
      eof : bool;  (** peer closed pre-checkpoint: EOF follows [drained] *)
    }
  | FPty of { master : bool; pty_key : int }

and sock_state =
  | S_established
  | S_listening of { port : int option; unix_path : string option; backlog : int }
  | S_other

type pty_record = {
  pty_key : int;
  pr_name : string;
  icanon : bool;
  echo : bool;
  isig : bool;
  baud : int;
  drained_to_slave : string;
  drained_to_master : string;
}

type t = {
  upid : Upid.t;
  vpid : int;
  parent_vpid : int;
  program : string;
  fds : (int * int * fd_info) list;
  ptys : pty_record list;
  algo : Compress.Algo.t;
  sizes : Mtcp.Image.sizes;
  delta_base : string option;
  mtcp_blob : string;
}

let filename ?seq t =
  let base = Filename.basename t.program in
  match seq with
  | None -> Printf.sprintf "ckpt_%s_%s.dmtcp" base (Upid.to_string t.upid)
  | Some k -> Printf.sprintf "ckpt_%s_%s.d%d.dmtcp" base (Upid.to_string t.upid) k

module C = Util.Codec
module W = Util.Codec.Writer
module R = Util.Codec.Reader

let sock_state_codec =
  C.(
    variant "sock state" (fun established listening other w -> function
      | S_established -> established w
      | S_listening { port; unix_path; backlog } -> listening w port unix_path backlog
      | S_other -> other w)
    |> case 0 [] S_established
    |> case 1
         [ option uvarint; option string; uvarint ]
         (fun port unix_path backlog -> S_listening { port; unix_path; backlog })
    |> case 2 [] S_other
    |> sealv)

let fd_info_codec =
  C.(
    variant "fd info" (fun file sock pty w -> function
      | FFile { path; offset } -> file w path offset
      | FSock { state; kind; role; conn_id; drained; eof } ->
        sock w state kind role conn_id drained eof
      | FPty { master; pty_key } -> pty w master pty_key)
    |> case 0 [ string; uvarint ] (fun path offset -> FFile { path; offset })
    |> case 1
         [
           sock_state_codec; Conn_table.kind_codec; Conn_table.role_codec; Conn_id.codec; string;
           bool;
         ]
         (fun state kind role conn_id drained eof ->
           FSock { state; kind; role; conn_id; drained; eof })
    |> case 2 [ bool; uvarint ] (fun master pty_key -> FPty { master; pty_key })
    |> sealv)

let pty_codec =
  C.(
    record (fun pty_key pr_name icanon echo isig baud drained_to_slave drained_to_master ->
        { pty_key; pr_name; icanon; echo; isig; baud; drained_to_slave; drained_to_master })
    |> field uvarint (fun p -> p.pty_key)
    |> field string (fun p -> p.pr_name)
    |> field bool (fun p -> p.icanon)
    |> field bool (fun p -> p.echo)
    |> field bool (fun p -> p.isig)
    |> field uvarint (fun p -> p.baud)
    |> field string (fun p -> p.drained_to_slave)
    |> field string (fun p -> p.drained_to_master)
    |> seal)

(* The metadata section: everything but [mtcp_blob], which is a section
   of its own and reads back empty here. *)
let meta_codec =
  C.(
    record
      (fun upid vpid parent_vpid program fds ptys algo uncompressed compressed zero_bytes
           delta_base ->
        { upid; vpid; parent_vpid; program; fds; ptys; algo;
          sizes = { Mtcp.Image.uncompressed; compressed; zero_bytes }; delta_base; mtcp_blob = "" })
    |> field Upid.codec (fun t -> t.upid)
    |> field uvarint (fun t -> t.vpid)
    |> field uvarint (fun t -> t.parent_vpid)
    |> field string (fun t -> t.program)
    |> field (list (triple uvarint uvarint fd_info_codec)) (fun t -> t.fds)
    |> field (list pty_codec) (fun t -> t.ptys)
    |> field Compress.Algo.codec (fun t -> t.algo)
    |> field uvarint (fun t -> t.sizes.Mtcp.Image.uncompressed)
    |> field uvarint (fun t -> t.sizes.Mtcp.Image.compressed)
    |> field uvarint (fun t -> t.sizes.Mtcp.Image.zero_bytes)
    |> field (option string) (fun t -> t.delta_base)
    |> seal)

let magic = "DMTCP_CKPT_V2"

exception Corrupt_image of string

(* V2 layout: magic, then two length-prefixed sections (metadata, mtcp
   blob), each followed by a CRC-32 trailer over the section bytes.  A
   truncated or bit-flipped image fails the CRC (or the bounds checks of
   the codec) and surfaces as [Corrupt_image] rather than garbage
   decode results at restart. *)

let crc_of s = Int32.to_int (Util.Crc32.digest s) land 0xffffffff

let write_section w payload =
  W.string w payload;
  W.u32 w (crc_of payload)

let read_section r what =
  let payload = R.string r in
  let crc = R.u32 r in
  if crc <> crc_of payload then
    raise (Corrupt_image (Printf.sprintf "%s section CRC mismatch" what));
  payload

let encode t =
  let meta = W.create ~capacity:1024 () in
  C.write meta_codec meta t;
  let w = W.create ~capacity:(String.length t.mtcp_blob + 1024) () in
  W.raw w magic;
  write_section w (W.contents meta);
  write_section w t.mtcp_blob;
  W.contents w

let decode s =
  try
    let r = R.of_string s in
    let m = R.raw r (String.length magic) in
    if m <> magic then raise (Corrupt_image "bad DMTCP image magic");
    let meta = read_section r "metadata" in
    let mtcp_blob = read_section r "mtcp" in
    R.expect_end r;
    { (C.of_string meta_codec meta) with mtcp_blob }
  with
  | Corrupt_image _ as e -> raise e
  | R.Corrupt msg -> raise (Corrupt_image msg)
  | Invalid_argument msg | Failure msg -> raise (Corrupt_image msg)

(* Chunk an encoded image at its DMZ2 frame boundaries for the
   content-addressed store: [magic + metadata section + blob length
   prefix] as one chunk, each frame of the mtcp blob as its own chunk,
   and the blob CRC trailer last.  Concatenating the chunks reproduces
   [bytes] exactly.  The metadata prefix carries the upid and so never
   dedups across generations, but it is tiny; the blob frames cover
   fixed 256 KiB windows of process memory, so generations that dirty
   few pages share almost every frame with their predecessor.  Anything
   unparseable (or a non-DMZ2 blob) chunks as a single unit. *)
let chunk bytes =
  let total = String.length bytes in
  let whole = [ bytes ] in
  try
    let r = R.of_string bytes in
    let pos () = total - R.remaining r in
    let m = R.raw r (String.length magic) in
    if m <> magic then whole
    else begin
      let (_ : string) = R.string r in (* metadata payload *)
      let (_ : int) = R.u32 r in (* metadata CRC *)
      let blob = R.string r in
      let blob_end = pos () in
      let blob_start = blob_end - String.length blob in
      match Compress.Container.frame_bounds blob with
      | None -> whole
      | Some bounds ->
        let prefix = String.sub bytes 0 blob_start in
        let frames =
          List.map (fun (off, len) -> String.sub bytes (blob_start + off) len) bounds
        in
        let suffix = String.sub bytes blob_end (total - blob_end) in
        (prefix :: frames) @ [ suffix ]
    end
  with R.Corrupt _ -> whole

(* The mtcp blob is itself a compressed container; bit-flips inside it
   surface as [Bad_container] (with the damaged block's index for DMZ2
   frames) — convert so restart's corrupt-image path handles both. *)
let mtcp t =
  try Mtcp.Image.decode t.mtcp_blob with
  | Compress.Container.Bad_container msg -> raise (Corrupt_image ("mtcp body: " ^ msg))
  | Util.Codec.Reader.Corrupt msg -> raise (Corrupt_image ("mtcp body: " ^ msg))

(* Resolve a delta image against its (already reconstructed) base MTCP
   image; same damage conversion as [mtcp]. *)
let delta_mtcp t ~base =
  try Mtcp.Image.apply_delta ~base t.mtcp_blob with
  | Compress.Container.Bad_container msg -> raise (Corrupt_image ("mtcp delta: " ^ msg))
  | Util.Codec.Reader.Corrupt msg -> raise (Corrupt_image ("mtcp delta: " ^ msg))

let sim_file_size t = t.sizes.Mtcp.Image.compressed
