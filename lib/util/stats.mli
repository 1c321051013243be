(** Descriptive statistics for benchmark reporting.

    The benchmark harness collects per-transaction latencies and
    per-run counters; this module turns them into the summary rows
    printed for each experiment. *)

type summary = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p95 : float;
  p99 : float;
}

val summarize : float array -> summary
(** Computes all fields in one pass plus a sort.  An empty array yields a
    zeroed summary. *)

val pp_summary : Format.formatter -> summary -> unit

(** {1 Histograms} *)

type histogram
(** Fixed-width bucket histogram over [\[lo, hi)]. *)

val histogram : lo:float -> hi:float -> buckets:int -> histogram
val record : histogram -> float -> unit
(** Out-of-range samples are clamped into the first / last bucket. *)

val bucket_counts : histogram -> int array
val total : histogram -> int
