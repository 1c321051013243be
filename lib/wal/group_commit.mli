(** Per-node group commit: batching commit-time log forces.

    The paper's commit path is exactly one local log force (§1.1, §4
    advantage (2)), which makes the force the dominant per-transaction
    cost.  Group commit amortises it: a transaction whose commit record
    is appended joins the node's pending batch instead of forcing
    immediately; the batch leader's force — triggered by the batch
    filling up ([group_commit_max_batch]) or the window expiring
    ([group_commit_window_ms]) — covers every member, charged once via
    {!Env.charge_log_force_shared}.

    Durability discipline: a pending transaction is NOT durable.  Its
    commit record sits in the volatile log tail; a crash before the
    batch force loses the whole batch and recovery aborts every member.
    Completion (the [on_durable] hook) fires only once the commit
    record is behind the durable boundary — after the batch force, or
    after any *other* force on the node (forces are block-grained and
    push durability to the device end, so WAL-before-ship or checkpoint
    forces complete pending commits as a free piggyback).  {!create}
    installs that sweep as the log's after-force hook
    ({!Log_manager.set_after_force}), so every force on the log runs
    it: no caller pairs a force with a sweep.

    The module lives in [lib/wal] below the transaction layer, so it
    speaks int transaction ids and callbacks, never [Txn.t]. *)

type t

val create : Repro_sim.Env.t -> node:int -> Log_manager.t -> t
(** Reads the batching knobs from the environment's config, and takes
    the log's after-force hook: a later [create] on the same log takes
    it over.
    [group_commit_max_batch <= 1] disables batching: {!batching} is
    [false] and callers use the classic synchronous force. *)

val set_hooks :
  t ->
  ?on_lost:(int list -> unit) ->
  before_force:(unit -> unit) ->
  on_durable:(txn:int -> submitted_at:float -> unit) ->
  unit ->
  unit
(** [before_force] runs immediately before a batch force with the batch
    still pending — the node installs its commit-force crash point
    here, so an injected crash loses the whole batch.  It may raise;
    the batch then stays pending and dies with the node's volatile
    state.  [on_durable] fires once per transaction, in submission
    order, when its commit record has become durable;
    [submitted_at] is the simulated time the transaction entered the
    batch (for commit-latency accounting).  [on_lost] fires from
    {!crash} with the dropped pending transaction ids (oldest first),
    after the batch is cleared. *)

val batching : t -> bool
(** Whether group commit is on ([max_batch > 1]). *)

val submit : t -> txn:int -> lsn:Lsn.t -> unit
(** Join the pending batch; [lsn] is the transaction's commit-record
    LSN.  Flushes immediately when the batch reaches [max_batch]. *)

val flush : t -> unit
(** Force the pending batch now (no-op when empty). *)

val tick : t -> now:float -> unit
(** Flush iff the window deadline has passed. *)

val deadline : t -> float option
(** Simulated time at which the pending batch must flush; [None] when
    nothing is pending. *)

val pending_count : t -> int
val is_pending : t -> txn:int -> bool

val crash : t -> unit
(** Drop the pending batch without completing it — the volatile log
    tail just vanished, so none of those commits happened.  Fires the
    [on_lost] hook with the dropped transaction ids. *)
