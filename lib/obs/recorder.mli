(** Event recorder: a bounded ring of typed events, simulated-clock
    spans, and per-(metric, node) latency histograms.

    Event emission and spans are gated on [enabled] and cost one branch
    when off — callers must still avoid formatting attrs eagerly on hot
    paths (build the attr list inside an [if Recorder.enabled] guard).
    Histograms are {e always} recorded: they read nothing from and
    write nothing to the simulation, so traced and untraced runs
    produce identical metrics — which the test suite asserts. *)

type t

val create : ?enabled:bool -> ?capacity:int -> unit -> t
(** [capacity] (default 65536) bounds the event ring; older events are
    overwritten and counted in [dropped].  The ring is allocated on the
    first recorded event, so a recorder that never records costs none. *)

val enabled : t -> bool
val set_enabled : t -> bool -> unit

val emit : t -> time:float -> node:int -> Event.kind -> (string * Event.value) list -> unit
(** No-op when disabled.  The event is stamped with the causal context
    (txn and span) when one is set; otherwise it inherits the innermost
    open span and no transaction. *)

(** {2 Causal context}

    A (txn, span) pair dynamically scoped around every operation a
    transaction performs, stamped onto each emitted event.  Callers
    save [context], [set_context], run, and restore the saved pair —
    never reset it blindly — so nested attribution (one
    transaction's completion running inside another's batch flush)
    stays exact. *)

val context : t -> int * int
(** Current (txn, span); [(-1, -1)] when unset. *)

val set_context : t -> txn:int -> span:int -> unit

val events : t -> Event.t list
(** Oldest first.  At most [capacity] events; see [dropped]. *)

val drain : t -> Event.t list
(** [events], plus a synthetic [Trace_dropped] summary event appended
    when the ring overflowed — consumers can tell a suffix from a whole
    run. *)

val dropped : t -> int

(** {2 Spans} *)

val span_begin : t -> time:float -> node:int -> ?parent:int -> string -> int
(** Opens a span and returns its id ([-1] when disabled — safe to pass
    straight to [span_end]).  [parent] defaults to the innermost open
    span. *)

val span_end : t -> time:float -> int -> unit
(** Closes an open span and records its [span.end] event, carrying the
    span's [id], [name] and [dur]; a closed or unknown id is a no-op.
    Spans are kept only while open: their record is the event stream. *)

val current_span : t -> int

(** {2 Histograms} *)

val observe : t -> name:string -> node:int -> float -> unit
(** Records [v] seconds into the [(name, node)] histogram and, when
    [node >= 0], also into the cluster-wide [(name, -1)] aggregate.
    Always on, independent of [enabled]. *)

val find_hist : t -> name:string -> node:int -> Log_hist.t option

val histograms : t -> (string * int * Log_hist.t) list
(** Sorted by name then node; node [-1] is the cluster aggregate. *)

(** {2 Export} *)

val to_jsonl : t -> string
(** One JSON object per line, oldest event first ([drain]: a
    [trace.dropped] summary line is appended when the ring
    overflowed). *)

val histograms_json : t -> Json.t
(** [{ "<name>": { "cluster": {...}, "node0": {...}, ... }, ... }] with
    count/mean/min/max/p50/p95/p99 per histogram. *)
