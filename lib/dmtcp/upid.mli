(** Universally unique process IDs: (hostid, pid, generation).

    Real pids are only unique per node and per boot; DMTCP identifies a
    checkpointed process across hosts and across restart generations by
    this triple. *)

type t = { hostid : int; pid : int; generation : int }

val make : hostid:int -> pid:int -> generation:int -> t
val to_string : t -> string
val next_generation : t -> t

(** [(hostid, pid)] without the generation — stable across restarts; the
    retention unit of generational checkpoint GC. *)
val lineage : t -> string

val codec : t Util.Codec.t
