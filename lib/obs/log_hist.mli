(** Log-bucketed latency histogram.

    Each power-of-two octave is split into 16 linear sub-buckets, so
    quantiles carry at most ~6% relative error at any magnitude —
    the HDR-histogram trick, implemented on [Float.frexp] so recording
    is a couple of integer ops and never allocates.  Zero and negative
    samples land in a dedicated underflow bucket. *)

type t

val create : unit -> t
val record : t -> float -> unit

val count : t -> int
val total : t -> float
val mean : t -> float
val min_value : t -> float
val max_value : t -> float

val quantile : t -> float -> float
(** [quantile t q] for [q] in [0,1]; bucket-midpoint estimate clamped
    to the observed [min,max] range.  0 when empty. *)

val p50 : t -> float
val p95 : t -> float
val p99 : t -> float

val to_json : t -> Json.t
val pp : Format.formatter -> t -> unit
