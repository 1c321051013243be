(** Deterministic pseudo-random number generation.

    All randomness in the simulator flows through this module so that every
    run of a scenario is exactly reproducible from its seed.  The generator
    is SplitMix64, which is fast, has a 64-bit state, and can be split into
    independent streams — one per node or per workload — without the
    streams being correlated. *)

type t
(** A mutable generator.  Not thread-safe; the simulator is
    single-threaded by design. *)

val create : int -> t
(** [create seed] returns a fresh generator.  Equal seeds give equal
    streams. *)

val split : t -> t
(** [split t] derives an independent generator from [t], advancing [t].
    Used to give each node / workload its own stream so that adding a
    consumer does not perturb the draws seen by the others. *)

val next_int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] draws uniformly from [0, bound).  [bound] must be
    positive. *)

val int_in_range : t -> lo:int -> hi:int -> int
(** [int_in_range t ~lo ~hi] draws uniformly from the inclusive range
    [lo, hi].  Requires [lo <= hi]. *)

val float : t -> float -> float
(** [float t bound] draws uniformly from [0, bound). *)

val chance : t -> float -> bool
(** [chance t p] is true with probability [p] (clamped to [0,1]). *)

val pick : t -> 'a array -> 'a
(** Uniform draw from a non-empty array. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)
