type kind =
  | Text
  | Data
  | Heap
  | Stack
  | Mmap_anon
  | Mmap_shared of { backing_path : string }

type perms = { read : bool; write : bool; exec : bool }

let rw = { read = true; write = true; exec = false }
let rx = { read = true; write = false; exec = true }
let ro = { read = true; write = false; exec = false }

type t = {
  id : int;
  start_addr : int;
  kind : kind;
  perms : perms;
  pages : Page.content array;
  dirty : Bytes.t;
  resident : Bytes.t;
}

let npages t = Array.length t.pages
let byte_size t = npages t * Page.size
let end_addr t = t.start_addr + byte_size t

let create ~id ~start_addr ~kind ~perms ~npages content =
  if start_addr mod Page.size <> 0 then invalid_arg "Region.create: unaligned start";
  {
    id;
    start_addr;
    kind;
    perms;
    pages = Array.init npages content;
    dirty = Bytes.make npages '\001';
    resident = Bytes.make npages '\001';
  }

let clone_private t =
  {
    t with
    pages = Array.copy t.pages;
    dirty = Bytes.copy t.dirty;
    resident = Bytes.copy t.resident;
  }
let alias t = t

let set_page t i content =
  t.pages.(i) <- content;
  Bytes.unsafe_set t.dirty i '\001';
  Bytes.unsafe_set t.resident i '\001'

let is_dirty t i = Bytes.unsafe_get t.dirty i <> '\000'

let dirty_count t =
  let n = ref 0 in
  Bytes.iter (fun c -> if c <> '\000' then incr n) t.dirty;
  !n

let clear_dirty t = Bytes.fill t.dirty 0 (Bytes.length t.dirty) '\000'
let is_resident t i = Bytes.unsafe_get t.resident i <> '\000'
let set_resident t i = Bytes.unsafe_set t.resident i '\001'
let mark_all_absent t = Bytes.fill t.resident 0 (Bytes.length t.resident) '\000'

let resident_count t =
  let n = ref 0 in
  Bytes.iter (fun c -> if c <> '\000' then incr n) t.resident;
  !n

let kind_name = function
  | Text -> "text"
  | Data -> "data"
  | Heap -> "heap"
  | Stack -> "stack"
  | Mmap_anon -> "mmap"
  | Mmap_shared _ -> "mmap-shared"

let kind_codec =
  Util.Codec.(
    variant "region kind" (fun text data heap stack anon shared w -> function
      | Text -> text w
      | Data -> data w
      | Heap -> heap w
      | Stack -> stack w
      | Mmap_anon -> anon w
      | Mmap_shared { backing_path } -> shared w backing_path)
    |> case 0 [] Text
    |> case 1 [] Data
    |> case 2 [] Heap
    |> case 3 [] Stack
    |> case 4 [] Mmap_anon
    |> case 5 [ string ] (fun backing_path -> Mmap_shared { backing_path })
    |> sealv)

let codec =
  Util.Codec.(
    record (fun id start_addr kind read write exec pages ->
        let n = Array.length pages in
        { id; start_addr; kind; perms = { read; write; exec }; pages; dirty = Bytes.make n '\001';
          resident = Bytes.make n '\001' })
    |> field uvarint (fun t -> t.id)
    |> field uvarint (fun t -> t.start_addr)
    |> field kind_codec (fun t -> t.kind)
    |> field bool (fun t -> t.perms.read)
    |> field bool (fun t -> t.perms.write)
    |> field bool (fun t -> t.perms.exec)
    |> field (array Page.codec) (fun t -> t.pages)
    |> seal)

let equal a b =
  a.id = b.id && a.start_addr = b.start_addr && a.kind = b.kind && a.perms = b.perms
  && npages a = npages b
  && Array.for_all2 (fun pa pb -> pa = pb) a.pages b.pages
