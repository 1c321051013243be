(** One CBL node: normal transaction processing (paper §2.2).

    A node plays two roles at once:
    - {b client}: runs transactions against pages it caches, logging
      every update — local or remote — in its {e own} log, and commits
      with a single local log force and {e zero messages};
    - {b owner}: services lock and page requests for the pages of its
      attached database, runs the callback protocol, receives replaced
      dirty pages, and forces pages / acknowledges flushes (§2.5).

    Operations that must wait raise {!Block.Would_block}; the caller
    (the workload driver) retries.  All functions assume the node is up
    unless stated otherwise.

    Crash recovery lives in {!Recovery}; this module only provides
    {!crash} (losing volatile state) and the owner-role servants the
    recovery protocol calls. *)

type t = Node_state.t

val create :
  Repro_sim.Env.t ->
  id:int ->
  pool_capacity:int ->
  ?log_capacity:int ->
  ?scheme:Node_state.scheme ->
  ?retain_cached_locks:bool ->
  unit ->
  t
(** [scheme] defaults to {!Node_state.Local_logging} — the paper's
    client-based logging.  The other schemes are the §3 baselines; see
    {!Node_state.scheme}.  [retain_cached_locks] (default true) is the
    inter-transaction caching of §2.1; disabling it is the E9
    ablation. *)

val id : t -> int
val is_up : t -> bool

(** {1 Database population (owner role)} *)

val allocate_page : t -> Repro_storage.Page_id.t
(** Allocates a page in this node's database (PSN seeded from the
    allocation map) and formats it on disk. *)

val deallocate_page : t -> Repro_storage.Page_id.t -> unit
(** Frees the slot, remembering the PSN seed for reallocation.  The
    caller must ensure no transaction holds the page. *)

(** {1 Transaction operations (client role)} *)

val begin_txn : t -> id:int -> Repro_tx.Txn.t
(** Registers a transaction with a cluster-issued id. *)

val read : t -> txn:int -> pid:Repro_storage.Page_id.t -> off:int -> len:int -> string
(** S-locks (callback protocol if needed), fetches the page if not
    cached, returns the bytes. *)

val read_cell : t -> txn:int -> pid:Repro_storage.Page_id.t -> off:int -> int64

val update_bytes : t -> txn:int -> pid:Repro_storage.Page_id.t -> off:int -> string -> unit
(** X-locks, logs a physical before/after-image record locally, applies
    it, bumps the PSN, maintains the DPT. *)

val update_delta : t -> txn:int -> pid:Repro_storage.Page_id.t -> off:int -> int64 -> unit
(** Same but with a logical increment record. *)

val commit : t -> txn:int -> unit
(** Appends the commit record and forces the local log.  No messages,
    no page forces — the paper's headline commit path.  Locks release
    locally; node-level cached locks are retained.

    With group commit enabled ([group_commit_max_batch > 1] and the
    local-logging scheme), the transaction instead joins the
    node's pending batch in state [Committing] and this function
    returns {e before} the commit is durable — completion happens when
    the batch forces (full, window expiry via {!Cluster.pump_group_commit},
    or a piggybacking force).  Callers must then poll
    {!Cluster.commit_outcome}. *)

val wire_group_commit :
  t ->
  ?on_lost:(int list -> unit) ->
  on_durable:(txn:int -> submitted_at:float -> unit) ->
  unit ->
  unit
(** Re-wire the node's group-commit hooks.  [on_durable] runs before
    the node's own completion work for each transaction whose commit
    record became durable — {!Cluster} records durability there, so a
    crash during completion cannot lose the verdict.  [on_lost] fires
    when a crash drops the pending batch, with the lost transactions —
    {!Cluster} reports them [`Gone] (default: no-op). *)

val abort : t -> txn:int -> unit
(** Total rollback with CLRs (re-fetching replaced pages from their
    owners if needed), then an abort record. *)

val savepoint : t -> txn:int -> string -> unit
val rollback_to : t -> txn:int -> string -> unit
(** Partial rollback to the named savepoint (§2.2). *)

(** {1 Maintenance} *)

val checkpoint : t -> unit
(** Fuzzy checkpoint — purely local, no synchronisation (§2.2, paper
    advantage 4). *)

val crash : t -> unit
(** Loses cache, lock tables, transaction table, DPT, flush waiters and
    the unforced log tail.  Durable state survives. *)

val reset_volatile : t -> unit
(** Wipe the volatile state of a node that is already down, {e without}
    touching the log device.  Recovery calls this on entry so a
    previous, aborted recovery attempt's partial state (recovered
    pages, reconstructed locks, re-registered losers) cannot leak into
    the new attempt. *)

val maybe_crashpoint : t -> Repro_fault.Fault_plan.point -> unit
(** Probe a named protocol crash point; with an armed injector the node
    may crash here, surfacing as [Would_block (Node_down _)].  Exposed
    so recovery can place its own restartability crash points. *)

(** {1 Owner-role services}

    Exposed for the recovery protocol and the test-suite; normal
    processing reaches them through the client-role operations. *)

val owner_flush_page : t -> Repro_storage.Page_id.t -> unit
(** Forces the owned page to disk (WAL first) and acknowledges every
    registered flush waiter (§2.5). *)

val owner_latest_copy : t -> Repro_storage.Page_id.t -> Repro_storage.Page.t
(** The owner's most recent version (cache, else disk, else a fresh
    page at the allocation-map PSN seed). *)

val register_flush_waiter : t -> Repro_storage.Page_id.t -> waiter:int -> unit

(** {1 Internals exposed for recovery and tests} *)

val install_recovered_page : t -> Repro_storage.Page.t -> waiters:int list -> unit
(** Recovery hand-off: place a just-recovered page in the cache as
    dirty and register its flush waiters. *)

val append_record : t -> Repro_wal.Record.t -> Repro_wal.Lsn.t
(** Appends with automatic §2.5 log-space management on a full log. *)

val undo_ops : t -> Repro_tx.Txn.t -> Repro_aries.Undo.ops
(** The node's CLR-writing undo callbacks, shared between normal
    rollback and restart loser undo. *)

val check_invariants : t -> unit
