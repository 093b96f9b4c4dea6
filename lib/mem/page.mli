(** A fixed-size virtual-memory page and its content representation. *)

(** Accounting page size in bytes.  Real x86 pages are 4 KiB; the
    simulator tracks content at 64 KiB granularity so that Figure 6's
    70 GB cluster-wide footprints stay cheap to represent.  Compression
    ratios are per-content-class, so the coarser granularity does not
    change size accounting. *)
val size : int

type content =
  | Zero                                             (** never written *)
  | Materialized of bytes                            (** real bytes, length {!size} *)
  | Synthetic of { seed : int64; cls : Entropy.t }   (** generated on demand *)

(** Realize the page as bytes. [Synthetic] pages generate deterministically
    from their seed, so materializing twice gives equal bytes. *)
val materialize : content -> bytes

(** True only for [Zero] (a materialized page of zeros is not detected). *)
val is_zero : content -> bool

(** Bytes this page would occupy after compression with [algo]:
    real compression for [Materialized], ratio-extrapolated for
    [Synthetic], ~0 for [Zero]. Used for simulated image sizing. *)
val compressed_size : Compress.Algo.t -> content -> int

val codec : content Util.Codec.t
