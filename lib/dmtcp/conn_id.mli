(** Globally unique socket connection IDs.

    Per the paper (§4.4): "(hostid, pid, timestamp, per-process connection
    number)" — constant even if processes are relocated, and therefore
    usable as the discovery-service key when sockets are re-established
    after restart.  Both endpoints of a connection agree on the
    *connector*'s ID during the drain-time handshake. *)

type t = { hostid : int; pid : int; timestamp : float; seq : int }

val make : hostid:int -> pid:int -> timestamp:float -> seq:int -> t

(** Discovery-service key. *)
val to_key : t -> string

val equal : t -> t -> bool
val codec : t Util.Codec.t
