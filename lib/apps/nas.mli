(** NAS-parallel-benchmark-style kernels (paper §5.2, Figure 4).

    Each is a *real* distributed computation at reduced scale — actual
    conjugate gradient, bucket sort, multigrid, and sweep solvers with
    verified answers — running over {!Mpi} with the memory footprint of
    its class-C counterpart supplied as synthetic pages.  A checkpoint
    can land at any point (mid-collective, mid-halo-exchange) and the
    kernel must still verify after resume or restart; rank 0 writes
    ["<KERNEL> VERIFIED <value>"] (or [FAILED]) to
    [/result/<kernel>-<base_port>].

    Registered programs (all take the standard rank argv of
    {!Launchers.parse_rank_args}, plus kernel-specific extras):

    - ["nas:baseline"] — the "hello world" used to price checkpointing a
      bare MPI runtime;
    - ["nas:ep"] — embarrassingly parallel Monte Carlo;
    - ["nas:is"] — integer bucket sort with all-to-all exchange and
      deliberately over-provisioned (zero-filled) buckets, the paper's
      compression anomaly;
    - ["nas:cg"] — conjugate gradient on a distributed tridiagonal
      system, halo exchanges plus allreduce dot products;
    - ["nas:mg"] — V-cycle multigrid for 1-D Poisson, distributed Jacobi
      smoothing with a gathered coarse solve;
    - ["nas:lu"] — pipelined forward/backward Gauss–Seidel (SSOR) sweeps;
    - ["nas:sp"] — ADI-style sweeps with a scalar pentadiagonal solver;
    - ["nas:bt"] — the same with 3x3 block-tridiagonal lines. *)

val register : unit -> unit

(** {2 Kernel framework} — reused by other rank programs (ParGeant4,
    iPython demo, the Figure-6 synthetic workload). *)

(** Outcome of one kernel step. *)
type 'k kout =
  | K_compute of 'k * float  (** burn CPU seconds *)
  | K_wait of 'k             (** block until communication progresses *)
  | K_done of float * bool   (** (result value, verified) *)

module type KERNEL = sig
  type kstate

  val prog_name : string
  val short : string
  val mem_bytes : int
  val mem_mix : Workload_mem.mix
  val neighbors : rank:int -> size:int -> int list
  val kinit : rank:int -> size:int -> extra:string list -> kstate
  val codec_k : kstate Util.Codec.t
  val kstep : Simos.Program.ctx -> Mpi.t -> kstate -> kstate kout
end

(** Wrap a kernel as a rank program: boot (parse rank argv, allocate the
    memory footprint), MPI init, kernel loop, result file write (rank 0),
    completion notification to mpirun. *)
module Make (_ : KERNEL) : Simos.Program.S

(** {2 IS key arrays} — the bucket-sort kernel's helpers. *)
module Is_keys : sig
  (** [partition ~nbuckets ~owner keys] splits [keys] into [nbuckets]
      exact-size arrays; bucket [b] holds the keys with [owner key = b],
      in reverse order of appearance (the order consing them onto a list
      gives).  [owner] must return a bucket in [0, nbuckets). *)
  val partition : nbuckets:int -> owner:(int -> int) -> int array -> int array array

  (** In-place ascending counting sort; its scratch array spans the
      keys' [max - min + 1]. *)
  val sort : int array -> unit

  (** Length, then every key as an [f64]. *)
  val codec : int array Util.Codec.t
end

(** (program name, per-rank uncompressed memory bytes) for each kernel,
    as used by the harness to set up Figure 4. *)
val catalog : (string * int) list
