module Writer = struct
  type t = { mutable buf : Bytes.t; mutable len : int }

  let create ?(capacity = 256) () = { buf = Bytes.create (max 16 capacity); len = 0 }
  let length t = t.len

  let ensure t n =
    let needed = t.len + n in
    if needed > Bytes.length t.buf then begin
      let cap = ref (Bytes.length t.buf * 2) in
      while !cap < needed do
        cap := !cap * 2
      done;
      let nb = Bytes.create !cap in
      Bytes.blit t.buf 0 nb 0 t.len;
      t.buf <- nb
    end

  let u8 t v =
    ensure t 1;
    Bytes.unsafe_set t.buf t.len (Char.unsafe_chr (v land 0xff));
    t.len <- t.len + 1

  let u16 t v =
    u8 t v;
    u8 t (v lsr 8)

  let u32 t v =
    u16 t v;
    u16 t (v lsr 16)

  (* [@inline] on the fixed-width forms: a direct loop over keys or
     floats then writes and reads them without boxing each one *)
  let[@inline] i64 t v =
    ensure t 8;
    Bytes.set_int64_le t.buf t.len v;
    t.len <- t.len + 8

  (* LEB128 over the full word, treating [v] as unsigned (so zigzagged
     values that wrapped negative still terminate). *)
  let rec uvarint_raw t v =
    if v >= 0 && v < 0x80 then u8 t v
    else begin
      u8 t (0x80 lor (v land 0x7f));
      uvarint_raw t (v lsr 7)
    end

  let uvarint t v =
    if v < 0 then invalid_arg "Codec.Writer.uvarint: negative";
    uvarint_raw t v

  let varint t v =
    (* zigzag *)
    uvarint_raw t ((v lsl 1) lxor (v asr (Sys.int_size - 1)))

  let[@inline] f64 t v = i64 t (Int64.bits_of_float v)
  let bool t v = u8 t (if v then 1 else 0)

  let raw t s =
    let n = String.length s in
    ensure t n;
    Bytes.blit_string s 0 t.buf t.len n;
    t.len <- t.len + n

  let string t s =
    uvarint t (String.length s);
    raw t s

  let bytes t b = string t (Bytes.unsafe_to_string b)

  let rec uvarint_size v = if v < 0x80 then 1 else 1 + uvarint_size (v lsr 7)

  (* one byte is reserved for the length; the body moves up in place
     when its length needs more *)
  let prefixed enc t v =
    let slot = t.len in
    u8 t 0;
    enc t v;
    let n = t.len - slot - 1 in
    let extra = uvarint_size n - 1 in
    if extra > 0 then begin
      ensure t extra;
      Bytes.blit t.buf (slot + 1) t.buf (slot + 1 + extra) n
    end;
    let stop = t.len + extra in
    t.len <- slot;
    uvarint t n;
    t.len <- stop

  let option enc t = function
    | None -> bool t false
    | Some v ->
      bool t true;
      enc t v

  let list enc t l =
    uvarint t (List.length l);
    List.iter (enc t) l

  let array enc t a =
    uvarint t (Array.length a);
    Array.iter (enc t) a

  let pair enc_a enc_b t (a, b) =
    enc_a t a;
    enc_b t b

  let contents t = Bytes.sub_string t.buf 0 t.len
end

module Reader = struct
  type t = { src : string; limit : int; mutable pos : int }

  exception Corrupt of string

  let corrupt fmt = Format.kasprintf (fun m -> raise (Corrupt m)) fmt

  let of_string ?(pos = 0) ?len src =
    let limit =
      match len with
      | None -> String.length src
      | Some n -> pos + n
    in
    if pos < 0 || limit > String.length src || pos > limit then
      corrupt "Reader.of_string: bad bounds";
    { src; limit; pos }

  let remaining t = t.limit - t.pos

  (* [n] may come from the input (a length prefix), so refuse a negative
     one before it can move [pos] backwards *)
  let need t n =
    if n < 0 then corrupt "negative length %d" n;
    if remaining t < n then corrupt "truncated input (need %d bytes, have %d)" n (remaining t)

  let u8 t =
    need t 1;
    let v = Char.code (String.unsafe_get t.src t.pos) in
    t.pos <- t.pos + 1;
    v

  let u16 t =
    let a = u8 t in
    let b = u8 t in
    a lor (b lsl 8)

  let u32 t =
    let a = u16 t in
    let b = u16 t in
    a lor (b lsl 16)

  let[@inline] i64 t =
    need t 8;
    let v = String.get_int64_le t.src t.pos in
    t.pos <- t.pos + 8;
    v

  let uvarint t =
    let rec go shift acc =
      if shift > 63 then corrupt "varint too long";
      let b = u8 t in
      let acc = acc lor ((b land 0x7f) lsl shift) in
      if b land 0x80 = 0 then acc else go (shift + 7) acc
    in
    go 0 0

  let varint t =
    let v = uvarint t in
    (v lsr 1) lxor (-(v land 1))

  let[@inline] f64 t = Int64.float_of_bits (i64 t)

  let bool t =
    match u8 t with
    | 0 -> false
    | 1 -> true
    | n -> corrupt "bad bool tag %d" n

  let raw t n =
    need t n;
    let s = String.sub t.src t.pos n in
    t.pos <- t.pos + n;
    s

  let string t =
    let n = uvarint t in
    raw t n

  let bytes t = Bytes.unsafe_of_string (string t)

  let sub t n =
    need t n;
    let r = { src = t.src; limit = t.pos + n; pos = t.pos } in
    t.pos <- t.pos + n;
    r

  let option dec t = if bool t then Some (dec t) else None

  let list dec t =
    let n = uvarint t in
    List.init n (fun _ -> dec t)

  (* every element takes at least one byte, so a count above the bytes
     left is corrupt: refuse it before [Array.init] allocates [n] slots *)
  let array dec t =
    let n = uvarint t in
    if n > remaining t then corrupt "array count %d exceeds the %d bytes left" n (remaining t);
    Array.init n (fun _ -> dec t)

  let pair dec_a dec_b t =
    let a = dec_a t in
    let b = dec_b t in
    (a, b)

  let expect_end t = if remaining t <> 0 then corrupt "%d trailing bytes" (remaining t)
end

type 'a t = { write : Writer.t -> 'a -> unit; read : Reader.t -> 'a }

let v write read = { write; read }
let write c = c.write
let read c = c.read

let u8 = v Writer.u8 Reader.u8
let uvarint = v Writer.uvarint Reader.uvarint
let varint = v Writer.varint Reader.varint
let i64 = v Writer.i64 Reader.i64
let f64 = v Writer.f64 Reader.f64
let bool = v Writer.bool Reader.bool
let string = v Writer.string Reader.string
let char = v (fun w c -> Writer.u8 w (Char.code c)) (fun r -> Char.chr (Reader.u8 r))
let option c = v (Writer.option c.write) (Reader.option c.read)
let list c = v (Writer.list c.write) (Reader.list c.read)
let array c = v (Writer.array c.write) (Reader.array c.read)
let pair a b = v (Writer.pair a.write b.write) (Reader.pair a.read b.read)

let triple a b c =
  v
    (fun w (x, y, z) ->
      a.write w x;
      b.write w y;
      c.write w z)
    (fun r ->
      let x = a.read r in
      let y = b.read r in
      let z = c.read r in
      (x, y, z))

let map c of_ to_ = v (fun w x -> c.write w (to_ x)) (fun r -> of_ (c.read r))

type ('r, 'k) fields = { fwrite : Writer.t -> 'r -> unit; fread : Reader.t -> 'k }

let record k = { fwrite = (fun _ _ -> ()); fread = (fun _ -> k) }

let field c get o =
  {
    fwrite =
      (fun w x ->
        o.fwrite w x;
        c.write w (get x));
    fread =
      (fun r ->
        let k = o.fread r in
        let a = c.read r in
        k a);
  }

let seal o = { write = o.fwrite; read = o.fread }

type ('w, 'k, 'v) args =
  | [] : (unit, 'v, 'v) args
  | ( :: ) : 'a t * ('w, 'k, 'v) args -> ('a -> 'w, 'a -> 'k, 'v) args

let rec write_args : type w k v. (w, k, v) args -> Writer.t -> w =
 fun args w ->
  match args with
  | [] -> ()
  | c :: rest ->
    fun x ->
      c.write w x;
      write_args rest w

let rec read_args : type w k v. (w, k, v) args -> Reader.t -> k -> v =
 fun args r k ->
  match args with
  | [] -> k
  | c :: rest ->
    let x = c.read r in
    read_args rest r (k x)

(* The writer (tag, then the values) and the reader of one case.  Up to
   two values get their own closures, so that writing or reading such a
   case allocates nothing of its own (every page goes through here);
   longer cases take the generic curried path, one closure per value. *)
let halves : type w k v. int -> (w, k, v) args -> k -> (Writer.t -> w) * (Reader.t -> v) =
 fun tag args k ->
  match args with
  | [] -> ((fun w -> Writer.u8 w tag), fun _ -> k)
  | [ a ] ->
    ( (fun w x ->
        Writer.u8 w tag;
        a.write w x),
      fun r -> k (a.read r) )
  | [ a; b ] ->
    ( (fun w x y ->
        Writer.u8 w tag;
        a.write w x;
        b.write w y),
      fun r ->
        let x = a.read r in
        let y = b.read r in
        k x y )
  | _ ->
    ( (fun w ->
        Writer.u8 w tag;
        write_args args w),
      fun r -> read_args args r k )

type ('v, 'd) cases = { vname : string; dest : 'd; readers : (int * (Reader.t -> 'v)) list }

let variant vname dest = { vname; dest; readers = [] }

let case tag args k cs =
  if tag < 0 || tag > 0xff || List.mem_assoc tag cs.readers then
    invalid_arg (Printf.sprintf "Codec.variant %s: bad or duplicate tag %d" cs.vname tag);
  let write, read = halves tag args k in
  { cs with dest = cs.dest write; readers = (tag, read) :: cs.readers }

let sealv cs =
  let table = Array.make (List.fold_left (fun n (tag, _) -> max n (tag + 1)) 0 cs.readers) None in
  List.iter (fun (tag, rd) -> table.(tag) <- Some rd) cs.readers;
  let read r =
    let tag = Reader.u8 r in
    match if tag < Array.length table then table.(tag) else None with
    | Some rd -> rd r
    | None -> raise (Reader.Corrupt (Printf.sprintf "bad %s tag %d" cs.vname tag))
  in
  { write = cs.dest; read }

let enum name values =
  let n = Array.length values in
  if n > 0x100 then invalid_arg (Printf.sprintf "Codec.enum %s: %d values" name n);
  (* a loop, not a local function: pages write their entropy class
     through here, and a closure per write would allocate *)
  let write w x =
    let tag = ref 0 in
    while !tag < n && values.(!tag) <> x do
      incr tag
    done;
    if !tag = n then invalid_arg (Printf.sprintf "Codec.enum %s: value not listed" name);
    Writer.u8 w !tag
  in
  let read r =
    let tag = Reader.u8 r in
    if tag < n then values.(tag)
    else raise (Reader.Corrupt (Printf.sprintf "bad %s tag %d" name tag))
  in
  { write; read }

let to_string c x =
  let w = Writer.create () in
  c.write w x;
  Writer.contents w

let of_string c s =
  let r = Reader.of_string s in
  let x = c.read r in
  Reader.expect_end r;
  x

let roundtrip c x = of_string c (to_string c x)
