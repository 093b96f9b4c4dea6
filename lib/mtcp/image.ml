type thread_image = {
  ti_inst : Simos.Program.instance;
  ti_wait : Simos.Program.wait option;
}

type t = {
  cmdline : string list;
  env : (string * string) list;
  threads : thread_image list;
  space : Mem.Address_space.t;
  sigtable : (int * Simos.Kernel.sigaction) list;
  pending_signals : int list;
}

let capture (proc : Simos.Kernel.process) =
  let threads =
    proc.Simos.Kernel.threads
    |> List.filter (fun (th : Simos.Kernel.thread) ->
           (not th.Simos.Kernel.manager) && th.Simos.Kernel.tstate <> Simos.Kernel.Dead)
    |> List.map (fun (th : Simos.Kernel.thread) ->
           let ti_wait =
             match th.Simos.Kernel.tstate with
             | Simos.Kernel.Blocked w -> Some w
             | Simos.Kernel.Ready | Simos.Kernel.Dead -> None
           in
           (* Round-trip the instance through its codec so the snapshot is
              decoupled from the live (mutable) instance. *)
           let ti_inst = Util.Codec.roundtrip Simos.Program.instance_codec th.Simos.Kernel.inst in
           { ti_inst; ti_wait })
  in
  {
    cmdline = proc.Simos.Kernel.cmdline;
    env = proc.Simos.Kernel.env;
    threads;
    space = Mem.Address_space.snapshot proc.Simos.Kernel.space;
    sigtable =
      Hashtbl.fold (fun s a acc -> (s, a) :: acc) proc.Simos.Kernel.sigtable []
      |> List.sort compare;
    pending_signals = proc.Simos.Kernel.pending_signals;
  }

type sizes = { uncompressed : int; compressed : int; zero_bytes : int }

(* Per-image metadata overhead charged on top of page payloads. *)
let metadata_bytes t =
  4096 + (1024 * List.length t.threads)

let sizes algo t =
  let uncompressed = ref (metadata_bytes t) in
  let compressed = ref (metadata_bytes t / 4) in
  let zero = ref 0 in
  List.iter
    (fun (r : Mem.Region.t) ->
      Array.iter
        (fun page ->
          uncompressed := !uncompressed + Mem.Page.size;
          if Mem.Page.is_zero page then zero := !zero + Mem.Page.size;
          compressed :=
            !compressed
            +
            match page with
            | Mem.Page.Zero -> ( match algo with Compress.Algo.Null -> Mem.Page.size | _ -> 8)
            | Mem.Page.Materialized _ -> Mem.Page.compressed_size algo page
            | Mem.Page.Synthetic { cls; _ } ->
              int_of_float (ceil (float_of_int Mem.Page.size *. Mem.Entropy.ratio algo cls)))
        r.Mem.Region.pages)
    (Mem.Address_space.regions t.space);
  { uncompressed = !uncompressed; compressed = !compressed; zero_bytes = !zero }

(* pages charged to an incremental image: those differing from the
   previous snapshot (physical equality is the fast path: unchanged slots
   alias the same immutable content) *)
let page_changed prev_pages idx page =
  match prev_pages with
  | Some pages when idx < Array.length pages ->
    let old = pages.(idx) in
    not (old == page || old = page)
  | _ -> true

let delta_sizes algo ~prev t =
  match prev with
  | None -> sizes algo t
  | Some prev_space ->
    let prev_regions =
      List.fold_left
        (fun acc (r : Mem.Region.t) -> (r.Mem.Region.id, r.Mem.Region.pages) :: acc)
        []
        (Mem.Address_space.regions prev_space)
    in
    let uncompressed = ref (metadata_bytes t) in
    let compressed = ref (metadata_bytes t / 4) in
    let zero = ref 0 in
    List.iter
      (fun (r : Mem.Region.t) ->
        let prev_pages = List.assoc_opt r.Mem.Region.id prev_regions in
        Array.iteri
          (fun idx page ->
            (* one bit per page for the dirty bitmap *)
            compressed := !compressed + 1;
            if page_changed prev_pages idx page then begin
              uncompressed := !uncompressed + Mem.Page.size;
              if Mem.Page.is_zero page then zero := !zero + Mem.Page.size;
              compressed :=
                !compressed
                +
                match page with
                | Mem.Page.Zero -> (
                  match algo with Compress.Algo.Null -> Mem.Page.size | _ -> 8)
                | Mem.Page.Materialized _ -> Mem.Page.compressed_size algo page
                | Mem.Page.Synthetic { cls; _ } ->
                  int_of_float (ceil (float_of_int Mem.Page.size *. Mem.Entropy.ratio algo cls))
            end)
          r.Mem.Region.pages)
      (Mem.Address_space.regions t.space);
    { uncompressed = !uncompressed; compressed = !compressed; zero_bytes = !zero }

module C = Util.Codec
module W = Util.Codec.Writer
module R = Util.Codec.Reader

let sigaction_codec =
  C.(
    variant "sigaction" (fun default ignore handler w -> function
      | Simos.Kernel.Sig_default -> default w
      | Simos.Kernel.Sig_ignore -> ignore w
      | Simos.Kernel.Sig_handler name -> handler w name)
    |> case 0 [] Simos.Kernel.Sig_default
    |> case 1 [] Simos.Kernel.Sig_ignore
    |> case 2 [ string ] (fun name -> Simos.Kernel.Sig_handler name)
    |> sealv)

let thread_codec =
  C.(
    record (fun ti_inst ti_wait -> { ti_inst; ti_wait })
    |> field Simos.Program.instance_codec (fun ti -> ti.ti_inst)
    |> field (option Simos.Program.wait_codec) (fun ti -> ti.ti_wait)
    |> seal)

(* the fields a full body and a delta body share, around the address
   space *)
let cmdline_codec = C.(list string)
let env_codec = C.(list (pair string string))
let threads_codec = C.list thread_codec
let sigtable_codec = C.(list (pair uvarint sigaction_codec))
let pending_codec = C.(list uvarint)

let body_codec =
  C.(
    record (fun cmdline env threads space sigtable pending_signals ->
        { cmdline; env; threads; space; sigtable; pending_signals })
    |> field cmdline_codec (fun t -> t.cmdline)
    |> field env_codec (fun t -> t.env)
    |> field threads_codec (fun t -> t.threads)
    |> field Mem.Address_space.codec (fun t -> t.space)
    |> field sigtable_codec (fun t -> t.sigtable)
    |> field pending_codec (fun t -> t.pending_signals)
    |> seal)

let encode_body t =
  let w = W.create ~capacity:4096 () in
  C.write body_codec w t;
  W.contents w

let encode ~algo t = Compress.Container.pack ~algo (encode_body t)
let decode s = C.of_string body_codec (Compress.Container.unpack s)

(* ---------------- incremental delta images ---------------- *)

let delta_magic = "MTCPD1"

(* Pages a delta must carry inline: every dirty page, plus every page of
   a shared mapping (other processes write through their own view of a
   shared region record, so this view's bitmap is not authoritative). *)
let page_inline (r : Mem.Region.t) idx =
  match r.Mem.Region.kind with
  | Mem.Region.Mmap_shared _ -> true
  | Mem.Region.Text | Mem.Region.Data | Mem.Region.Heap | Mem.Region.Stack
  | Mem.Region.Mmap_anon ->
    Mem.Region.is_dirty r idx

let delta_pages t =
  List.fold_left
    (fun acc r -> acc + Mem.Address_space.region_dirty_pages r)
    0
    (Mem.Address_space.regions t.space)

(* A delta body mirrors [body_codec] except for the address space: the
   skeleton (allocation cursor plus each region's identity and shape) is
   stored in full, and each page is either inline (tag 1, dirty since the
   base snapshot) or a reference to the base image's page at the same
   region id and index (tag 0).  Regions created after the base snapshot
   are born all-dirty, so tag 0 never points outside the base. *)
let encode_delta_body t =
  let w = W.create ~capacity:4096 () in
  W.raw w delta_magic;
  C.write cmdline_codec w t.cmdline;
  C.write env_codec w t.env;
  C.write threads_codec w t.threads;
  W.uvarint w (Mem.Address_space.next_addr t.space);
  W.uvarint w (Mem.Address_space.next_region_id t.space);
  W.list
    (fun w (r : Mem.Region.t) ->
      W.uvarint w r.Mem.Region.id;
      W.uvarint w r.Mem.Region.start_addr;
      C.write Mem.Region.kind_codec w r.Mem.Region.kind;
      W.bool w r.Mem.Region.perms.Mem.Region.read;
      W.bool w r.Mem.Region.perms.Mem.Region.write;
      W.bool w r.Mem.Region.perms.Mem.Region.exec;
      W.uvarint w (Mem.Region.npages r);
      Array.iteri
        (fun idx page ->
          if page_inline r idx then begin
            W.u8 w 1;
            C.write Mem.Page.codec w page
          end
          else W.u8 w 0)
        r.Mem.Region.pages)
    w
    (Mem.Address_space.regions t.space);
  C.write sigtable_codec w t.sigtable;
  C.write pending_codec w t.pending_signals;
  W.contents w

let encode_delta ~algo t = Compress.Container.pack ~algo (encode_delta_body t)

let apply_delta ~base s =
  let body = Compress.Container.unpack s in
  let r = R.of_string body in
  let magic = R.raw r (String.length delta_magic) in
  if magic <> delta_magic then raise (R.Corrupt "not an MTCPD1 delta image");
  let base_regions =
    List.fold_left
      (fun acc (br : Mem.Region.t) -> (br.Mem.Region.id, br) :: acc)
      []
      (Mem.Address_space.regions base.space)
  in
  let cmdline = C.read cmdline_codec r in
  let env = C.read env_codec r in
  let threads = C.read threads_codec r in
  let next_addr = R.uvarint r in
  let next_region_id = R.uvarint r in
  let regions =
    R.list
      (fun r ->
        let id = R.uvarint r in
        let start_addr = R.uvarint r in
        let kind = C.read Mem.Region.kind_codec r in
        let read = R.bool r in
        let write = R.bool r in
        let exec = R.bool r in
        let npages = R.uvarint r in
        let base_pages =
          match List.assoc_opt id base_regions with
          | Some br -> br.Mem.Region.pages
          | None -> [||]
        in
        let pages =
          Array.init npages (fun idx ->
              match R.u8 r with
              | 1 -> C.read Mem.Page.codec r
              | 0 ->
                if idx < Array.length base_pages then base_pages.(idx)
                else
                  raise
                    (R.Corrupt (Printf.sprintf "delta references missing base page %d/%d" id idx))
              | n -> raise (R.Corrupt (Printf.sprintf "bad delta page tag %d" n)))
        in
        {
          Mem.Region.id;
          start_addr;
          kind;
          perms = { Mem.Region.read; write; exec };
          pages;
          dirty = Bytes.make npages '\001';
          resident = Bytes.make npages '\001';
        })
      r
  in
  let sigtable = C.read sigtable_codec r in
  let pending_signals = C.read pending_codec r in
  R.expect_end r;
  {
    cmdline;
    env;
    threads;
    space = Mem.Address_space.of_regions ~next_addr ~next_region_id regions;
    sigtable;
    pending_signals;
  }

let restore_threads kernel (proc : Simos.Kernel.process) t =
  proc.Simos.Kernel.space <- t.space;
  proc.Simos.Kernel.cmdline <- t.cmdline;
  proc.Simos.Kernel.env <- t.env;
  List.iter (fun (s, a) -> Simos.Kernel.set_sigaction proc s a) t.sigtable;
  proc.Simos.Kernel.pending_signals <- t.pending_signals;
  List.iter
    (fun ti -> ignore (Simos.Kernel.add_thread kernel proc ~inst:ti.ti_inst ?blocked:ti.ti_wait ()))
    t.threads

let instance_bytes = C.to_string Simos.Program.instance_codec

let equal a b =
  a.cmdline = b.cmdline && a.env = b.env && a.sigtable = b.sigtable
  && a.pending_signals = b.pending_signals
  && List.length a.threads = List.length b.threads
  && List.for_all2
       (fun x y -> x.ti_wait = y.ti_wait && instance_bytes x.ti_inst = instance_bytes y.ti_inst)
       a.threads b.threads
  && Mem.Address_space.equal a.space b.space
