(** Event recorder: every typed event of a run, and per-(metric, node)
    latency histograms.

    Event emission is gated on [enabled] and costs one branch when
    off — callers must still avoid formatting attrs eagerly on hot
    paths (build the attr list inside an [if Recorder.enabled] guard).
    Histograms are {e always} recorded: they read nothing from and
    write nothing to the simulation, so traced and untraced runs
    produce identical metrics — which the test suite asserts. *)

type t

val create : ?enabled:bool -> unit -> t
(** The recorder keeps every event it records, with no bound: its memory
    grows with the run.  One that never records allocates no event
    store. *)

val enabled : t -> bool
val set_enabled : t -> bool -> unit

val emit : t -> time:float -> node:int -> Event.kind -> (string * Event.value) list -> unit
(** No-op when disabled.  The event is stamped with the causal context,
    the acting transaction ([-1] when none). *)

(** {2 Causal context}

    The acting transaction, dynamically scoped around every operation it
    performs and stamped onto each emitted event.  Callers save
    [context], [set_context], run, and restore the saved id — never
    reset it blindly — so nested attribution (one transaction's
    completion running inside another's batch flush) stays exact. *)

val context : t -> int
(** The acting transaction; [-1] when unset. *)

val set_context : t -> txn:int -> unit

val events : t -> Event.t list
(** Every recorded event, oldest first: always a whole run. *)

(** {2 Histograms} *)

val observe : t -> name:string -> node:int -> float -> unit
(** Records [v] seconds into the [(name, node)] histogram and, when
    [node >= 0], also into the cluster-wide [(name, -1)] aggregate.
    [node] is a node id or [-1].  Always on, independent of [enabled];
    allocates only when a histogram is first used. *)

val find_hist : t -> name:string -> node:int -> Log_hist.t option

val histograms : t -> (string * int * Log_hist.t) list
(** Sorted by name then node; node [-1] is the cluster aggregate. *)

(** {2 Export} *)

val to_jsonl : t -> string
(** One JSON object per line: [events], in order. *)

val histograms_json : t -> Json.t
(** [{ "<name>": { "cluster": {...}, "node0": {...}, ... }, ... }] with
    count/mean/min/max/p50/p95/p99 per histogram. *)
