(** Binary min-heap keyed by [(priority, sequence)].

    Two entries with equal priority pop in insertion order, which makes the
    event engine deterministic: simultaneous events fire in the order they
    were scheduled, and Huffman tree building assigns the same codes on
    every run.  A popped value is no longer referenced by the heap. *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool

(** [push h ~priority v] inserts [v]. *)
val push : 'a t -> priority:float -> 'a -> unit

(** Priority of the smallest entry.  Raises [Invalid_argument] when empty. *)
val min_priority : 'a t -> float

(** Remove the smallest entry and return its value.  Raises
    [Invalid_argument] when empty.  With {!min_priority} this is {!pop}
    without the option and the pair, for a caller that pops on every
    event. *)
val take : 'a t -> 'a

(** Remove the smallest entry, as [(priority, value)]. *)
val pop : 'a t -> (float * 'a) option
