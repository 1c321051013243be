(** Offline protocol auditor.

    Replays a recorded event stream (a live {!Recorder}'s events or a
    parsed JSONL trace) and checks the protocol invariants behind the
    bug classes earlier PRs fixed:

    - [force-before-ship] — WAL: no page copy leaves a node before the
      covering log records are durable there;
    - [batch-loss-closure] — group commit: commits are reported only
      after a covering force, and never out of a crash-lost batch;
    - [psn-monotonic] — shipped PSNs never regress for a page;
    - [release-after-terminal] — strict 2PL: no lock activity or log
      append carries a transaction's context past its terminal release;
    - [release-after-submit] — early lock release weakens the above for
      committing transactions: locks may be surrendered only between
      the commit-record submit and its covering force, with no further
      lock/log work by the releaser;
    - [closure-loss] — a transaction that observed an early releaser's
      pages must not report committed (nor already be durable) once
      that antecedent is lost; loss propagates through the forward
      dependency closure.

    Traces are assumed to come from the paper's [Local_logging] scheme.
    The recorder keeps every event, so a trace is a whole run and every
    check always runs. *)

type violation = { invariant : string; time : float; node : int; detail : string }

type report = {
  violations : violation list;  (** in event order *)
  events_checked : int;
}

val run : Event.t list -> report
(** Events must be in emission (time) order. *)

val ok : report -> bool
val to_json : report -> Json.t
val pp : Format.formatter -> report -> unit
