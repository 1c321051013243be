(** The shared simulation environment: one per cluster.

    Bundles the cost model, the simulated clock, the trace and the
    random source, and exposes the charging primitives that all
    substrates use.  Each charge advances the clock by the configured
    cost and bumps the relevant counters in the caller's (per-node)
    metrics — the only copy; the cluster sums its nodes' records on
    read. *)

type t

val create :
  ?trace:bool ->
  ?trace_capacity:int ->
  ?seed:int ->
  ?faults:Repro_fault.Injector.t ->
  Config.t ->
  t
(** [faults] installs a deterministic fault injector; every message,
    crash and protocol crash point consults it.  Absent, no fault code
    runs at all.  [trace_capacity] sizes the event ring (default
    65536); audit runs raise it so long faulted traces are not
    truncated. *)

val config : t -> Config.t
val now : t -> float
val obs : t -> Repro_obs.Recorder.t
(** The typed event recorder: the only trace channel. *)

val rng : t -> Repro_util.Rng.t

val faults : t -> Repro_fault.Injector.t option
(** The cluster's fault injector, if one is installed. *)

val tracing : t -> bool
(** Whether event recording is on.  Hot paths must check this before
    building attribute lists. *)

val emit : t -> node:int -> Repro_obs.Event.kind -> (string * Repro_obs.Event.value) list -> unit
(** Emit a typed event at the current simulated time (no-op when
    tracing is off — but guard attr construction with [tracing]). *)

val with_txn : t -> txn:int -> span:int -> (unit -> 'a) -> 'a
(** Run [f] with the causal trace context set to [(txn, span)]: every
    event emitted while it runs — on any node — is stamped as caused by
    [txn].  Contexts nest (saved and restored around [f], exceptions
    included); one branch and no allocation when tracing is off. *)

val message_cost : t -> bytes:int -> float
(** The clock advance [charge_message] would make for [bytes]. *)

val observe : t -> name:string -> node:int -> float -> unit
(** Record a latency sample (seconds) into the named histogram, per
    node and cluster-wide.  Always on; never touches clock/metrics. *)

(** {1 Charging primitives}

    Every primitive takes the per-node metrics of the node doing the
    work.  [recovery] marks counters that should land in the recovery
    columns instead of the normal-processing ones. *)

val charge_message : t -> Metrics.t -> ?commit_path:bool -> ?recovery:bool -> bytes:int -> unit -> unit
val charge_page_read : t -> Metrics.t -> unit
val charge_page_write : t -> Metrics.t -> ?commit_path:bool -> unit -> unit
val charge_log_append : t -> Metrics.t -> bytes:int -> unit

val charge_log_force : t -> Metrics.t -> ?durable:int -> bytes:int -> unit -> unit
(** A synchronous force of [bytes] of buffered log.  [durable] is the
    log's durable boundary after the force; when tracing, it rides on
    the [Log_force] event for the trace auditor's WAL check. *)

val charge_log_force_shared : t -> Metrics.t -> ?durable:int -> bytes:int -> sharers:int -> unit -> unit
(** One physical log force whose cost is shared by [sharers]
    concurrently committing transactions (group commit).  Charges the
    same seek+transfer time as {!charge_log_force} — once, not per
    sharer — and additionally bumps the [commit_batches] /
    [batched_commits] counters. *)

val charge_log_scan_record : t -> Metrics.t -> bytes:int -> unit
(** Reading one record during a recovery scan. *)

val charge_lock_op : t -> Metrics.t -> unit
val charge_cpu : t -> float -> unit
(** Raw CPU time, for costs with no dedicated counter. *)

val charge_cpu_for : t -> Metrics.t -> float -> unit
(** Raw CPU time attributed to a node's busy-time accounting. *)
