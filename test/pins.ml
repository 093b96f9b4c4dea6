(* CRC-32 pins over checkpoint images, shared by the suites that pin
   the bytes their checkpoints write: a change to a program's state
   codec, or to an image section's, must keep those bytes identical. *)

(* CRC-32 of an image's two section payloads.  Each section ends in its
   own CRC-32 trailer, and a CRC run over bytes followed by their CRC
   always leaves the same register, so a digest of the raw file would see
   little more than the section lengths. *)
let image_crc bytes =
  let module R = Util.Codec.Reader in
  let r = R.of_string bytes in
  ignore (R.raw r (String.length "DMTCP_CKPT_V2"));
  let meta = R.string r in
  ignore (R.u32 r);
  let blob = R.string r in
  Util.Crc32.(finish (update (update init meta 0 (String.length meta)) blob 0 (String.length blob)))

(* The image CRC of every (node, path) in [images], in (node, path)
   order. *)
let image_crcs cl images =
  List.sort compare images
  |> List.map (fun (node, path) ->
         match Simos.Vfs.lookup (Simos.Kernel.vfs (Simos.Cluster.kernel cl node)) path with
         | Some f -> image_crc (Simos.Vfs.read_all f)
         | None -> Alcotest.failf "image %s missing on node %d" path node)
  |> Array.of_list

let check_crcs what pinned got =
  Alcotest.(check int) (what ^ ": image count") (Array.length pinned) (Array.length got);
  Array.iteri
    (fun i crc -> Alcotest.(check int32) (Printf.sprintf "%s: image %d CRC-32" what i) crc got.(i))
    pinned
