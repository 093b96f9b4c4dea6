(* Slots at or beyond [size] are always [Empty], so a popped value is
   never kept alive by the heap's backing array. *)
type 'a slot = Empty | Entry of { priority : float; seq : int; value : 'a }

type 'a t = {
  mutable data : 'a slot array;
  mutable size : int;
  mutable next_seq : int;
}

let create () = { data = [||]; size = 0; next_seq = 0 }
let length t = t.size
let is_empty t = t.size = 0

let less a b =
  match (a, b) with
  | Entry a, Entry b -> a.priority < b.priority || (a.priority = b.priority && a.seq < b.seq)
  | _ -> assert false

let swap t i j =
  let tmp = t.data.(i) in
  t.data.(i) <- t.data.(j);
  t.data.(j) <- tmp

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if less t.data.(i) t.data.(parent) then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.size && less t.data.(l) t.data.(!smallest) then smallest := l;
  if r < t.size && less t.data.(r) t.data.(!smallest) then smallest := r;
  if !smallest <> i then begin
    swap t i !smallest;
    sift_down t !smallest
  end

let push t ~priority value =
  let entry = Entry { priority; seq = t.next_seq; value } in
  t.next_seq <- t.next_seq + 1;
  if t.size = Array.length t.data then begin
    let data = Array.make (max 16 (2 * t.size)) Empty in
    Array.blit t.data 0 data 0 t.size;
    t.data <- data
  end;
  t.data.(t.size) <- entry;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

let min_priority t =
  if t.size = 0 then invalid_arg "Heap.min_priority: empty heap"
  else match t.data.(0) with Entry e -> e.priority | Empty -> assert false

let take t =
  if t.size = 0 then invalid_arg "Heap.take: empty heap"
  else
    match t.data.(0) with
    | Empty -> assert false
    | Entry top ->
      let last = t.size - 1 in
      t.size <- last;
      t.data.(0) <- t.data.(last);
      t.data.(last) <- Empty;
      if last > 0 then sift_down t 0;
      top.value

let pop t =
  if t.size = 0 then None
  else
    let priority = min_priority t in
    Some (priority, take t)
