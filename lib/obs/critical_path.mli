(** Critical-path commit-latency attribution.

    Folds a recorded event stream into one timeline per committed
    transaction and decomposes end-to-end latency (txn.begin →
    txn.commit) into protocol phases: lock wait, group-commit batch
    wait, log forces, network, owner service, and an explicit
    un-attributed remainder.  Components sum to the measured total by
    construction — nothing double-counted, nothing dropped.

    Offline: consumes an {!Event.t} list (from a live {!Recorder} or a
    parsed JSONL trace) and touches nothing in the simulator. *)

type components = {
  mutable lock_wait : float;  (** lock acquisition net of attributed work done while waiting *)
  mutable batch_wait : float;  (** group commit: submit → start of the covering force *)
  mutable log_force : float;  (** log-device forces, incl. the shared batch force *)
  mutable network : float;  (** message transmission *)
  mutable owner_service : float;  (** page-device reads/writes on the txn's behalf *)
  dep_wait : float;
      (** always 0.  No commit waits on an early-lock-release
          dependency: both transactions run on one node, whose log
          forces the antecedent's commit first.  Kept so reports keep
          their [dep_wait] column ([critical_path.dep_wait_ms] in the
          benchmark's per-layer schema). *)
  mutable other : float;  (** remainder (CPU, lock ops); never negative *)
}

type timeline = {
  txn : int;
  node : int;
  began : float;
  committed : float;
  total : float;  (** [committed -. began]; equals the component sum *)
  parts : components;
}

type t = { txns : timeline list; truncated : bool }
(** [truncated]: the stream carried a [trace.dropped] summary — some
    transactions may be missing their prefix and were skipped. *)

val analyze : Event.t list -> t
(** Events must be in emission (time) order, as [Recorder.events] and
    JSONL traces are.  Transactions without both a [txn.begin] and a
    [txn.commit] in the stream are omitted. *)

val component_names : string list
(** ["lock_wait"; "batch_wait"; "log_force"; "network"; "owner_service";
    ["dep_wait"; "other"]] — stable reporting order. *)

val component_value : components -> string -> float
(** Lookup by name from {!component_names}; raises [Invalid_argument]
    on an unknown name. *)

val component_hists : t -> (string * Log_hist.t) list
(** One histogram per component across all timelines, plus a ["total"]
    histogram of end-to-end latencies. *)

val folded_stacks : t -> string list
(** Flamegraph folded-stack lines ([node;txn;component weight]),
    weights in integer microseconds of simulated time. *)
