(** Binary serialization used for checkpoint images, connection tables and
    program state blobs.

    The format is self-describing only to the extent the caller makes it so:
    readers must consume fields in the exact order writers produced them.
    Integers use LEB128 varints (with zigzag for signed values) so that the
    common small values cost one byte; fixed-width forms are provided for
    fields whose size must be predictable (e.g. image headers).

    {!Writer} and {!Reader} are the two halves.  A {!t} carries both, so
    a state is described once and cannot be written one way and read
    another (pickler combinators, after Kennedy, JFP 2004):

    {[
      type p = { x : int; tag : string option }

      let p_codec =
        record (fun x tag -> { x; tag })
        |> field uvarint (fun p -> p.x)
        |> field (option string) (fun p -> p.tag)
        |> seal

      type shape = Dot | Circle of float | Box of p * int

      let shape_codec =
        variant "shape" (fun dot circle box w -> function
          | Dot -> dot w
          | Circle r -> circle w r
          | Box (p, n) -> box w p n)
        |> case 0 [] Dot
        |> case 1 [ f64 ] (fun r -> Circle r)
        |> case 2 [ p_codec; uvarint ] (fun p n -> Box (p, n))
        |> sealv
    ]}

    A record is its constructor plus one [field] per encoded value, in
    wire order; each field names the primitive and the getter that feeds
    it.  A getter may compute (write [p.epoch + 1]), and a transient
    field is set by the constructor and has no [field].  A variant is one
    destructor plus one case per constructor: the destructor takes one
    writer per case, in the order the cases follow it, and hands it the
    writer and the constructor's values; the case writes its [u8] tag
    and then the values with the codecs it lists, and reads them back
    into its rebuild function.

    Reading is strict: a variant or {!enum} tag with no case raises
    {!Reader.Corrupt} ["bad <name> tag N"], and {!of_string} (hence
    {!roundtrip}, and a program state body, see [Simos.Program]) rejects
    bytes left over after the value. *)

module Writer : sig
  type t

  val create : ?capacity:int -> unit -> t

  (** Number of bytes written so far. *)
  val length : t -> int

  val u8 : t -> int -> unit
  val u16 : t -> int -> unit
  val u32 : t -> int -> unit
  val i64 : t -> int64 -> unit

  (** Unsigned LEB128. Raises [Invalid_argument] on negative input. *)
  val uvarint : t -> int -> unit

  (** Zigzag-encoded signed varint. *)
  val varint : t -> int -> unit

  val f64 : t -> float -> unit
  val bool : t -> bool -> unit

  (** Length-prefixed string. *)
  val string : t -> string -> unit

  (** Length-prefixed bytes. *)
  val bytes : t -> bytes -> unit

  (** Raw bytes, no length prefix. *)
  val raw : t -> string -> unit

  (** [prefixed enc t v] writes [v] with [enc] behind its byte length,
      framed as {!string} frames a string, without writing it anywhere
      else first. *)
  val prefixed : (t -> 'a -> unit) -> t -> 'a -> unit

  val option : (t -> 'a -> unit) -> t -> 'a option -> unit
  val list : (t -> 'a -> unit) -> t -> 'a list -> unit
  val array : (t -> 'a -> unit) -> t -> 'a array -> unit
  val pair : (t -> 'a -> unit) -> (t -> 'b -> unit) -> t -> 'a * 'b -> unit

  val contents : t -> string
end

module Reader : sig
  type t

  (** Raised on malformed input (truncation, bad tag, trailing junk). *)
  exception Corrupt of string

  val of_string : ?pos:int -> ?len:int -> string -> t

  (** Bytes remaining. *)
  val remaining : t -> int

  val u8 : t -> int
  val u16 : t -> int
  val u32 : t -> int
  val i64 : t -> int64
  val uvarint : t -> int
  val varint : t -> int
  val f64 : t -> float
  val bool : t -> bool
  val string : t -> string
  val bytes : t -> bytes

  (** [raw t n] reads exactly [n] bytes. *)
  val raw : t -> int -> string

  (** [sub t n] is a reader over the next [n] bytes alone, which [t]
      skips; nothing is copied. *)
  val sub : t -> int -> t

  val option : (t -> 'a) -> t -> 'a option
  val list : (t -> 'a) -> t -> 'a list
  val array : (t -> 'a) -> t -> 'a array
  val pair : (t -> 'a) -> (t -> 'b) -> t -> 'a * 'b

  (** Raises {!Corrupt} unless all input has been consumed. *)
  val expect_end : t -> unit
end

(** {2 Bidirectional codecs} *)

(** A writer and its reader for one type. *)
type 'a t

(** [v write read] pairs two hand-written halves: bulk arrays that need
    a direct loop, and states the combinators would not shorten. *)
val v : (Writer.t -> 'a -> unit) -> (Reader.t -> 'a) -> 'a t

val write : 'a t -> Writer.t -> 'a -> unit
val read : 'a t -> Reader.t -> 'a

val u8 : int t
val uvarint : int t
val varint : int t
val i64 : int64 t
val f64 : float t
val bool : bool t
val string : string t

(** One byte, [Char.code]. *)
val char : char t

val option : 'a t -> 'a option t
val list : 'a t -> 'a list t
val array : 'a t -> 'a array t
val pair : 'a t -> 'b t -> ('a * 'b) t
val triple : 'a t -> 'b t -> 'c t -> ('a * 'b * 'c) t

(** [map c of_ to_] reads through [of_] and writes through [to_]. *)
val map : 'a t -> ('a -> 'b) -> ('b -> 'a) -> 'b t

(** {3 Records} *)

(** A record ['r] whose constructor still wants the arguments in ['k]. *)
type ('r, 'k) fields

val record : 'k -> ('r, 'k) fields
val field : 'a t -> ('r -> 'a) -> ('r, 'a -> 'k) fields -> ('r, 'k) fields
val seal : ('r, 'r) fields -> 'r t

(** {3 Variants} *)

(** The values one constructor carries, as a list of codecs: [[]] for a
    constant constructor, [[c1; ...; cn]] for n values.  ['w] is the
    curried writer [a1 -> ... -> an -> unit], ['k] the curried rebuild
    [a1 -> ... -> an -> 'v]. *)
type ('w, 'k, 'v) args =
  | [] : (unit, 'v, 'v) args
  | ( :: ) : 'a t * ('w, 'k, 'v) args -> ('a -> 'w, 'a -> 'k, 'v) args

(** A variant ['v] whose destructor still wants the case writers in
    ['d]. *)
type ('v, 'd) cases

(** [variant name destructor]; [name] goes into the bad-tag error. *)
val variant : string -> 'd -> ('v, 'd) cases

(** [case tag args k]: the destructor's next writer writes [tag] as a
    [u8], then each value with its codec in [args]; reading [tag] reads
    them back in order and applies [k].  Raises [Invalid_argument] on a
    tag outside 0..255 or already used. *)
val case : int -> ('w, 'k, 'v) args -> 'k -> ('v, (Writer.t -> 'w) -> 'd) cases -> ('v, 'd) cases

val sealv : ('v, Writer.t -> 'v -> unit) cases -> 'v t

(** [enum name values]: a variant of constant constructors only, each
    written as the [u8] of its position in [values].  A tag past the end
    raises {!Reader.Corrupt} ["bad <name> tag N"]; writing a value not in
    [values] raises [Invalid_argument]. *)
val enum : string -> 'v array -> 'v t

(** {3 Whole values} *)

val to_string : 'a t -> 'a -> string

(** Raises {!Reader.Corrupt} on malformed input or trailing bytes. *)
val of_string : 'a t -> string -> 'a

(** [roundtrip c v] encodes then decodes [v]; used by tests. *)
val roundtrip : 'a t -> 'a -> 'a
