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
