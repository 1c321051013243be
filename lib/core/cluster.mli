(** A simulated CBL cluster — the library's main entry point.

    Builds the Figure-1 topology: [n] networked nodes, each with a
    local log; any subset of them owns databases (pages are allocated
    at a chosen owner).  Issues cluster-wide transaction ids, routes
    operations to the executing node, and provides crash / recovery
    entry points.

    {[
      let cluster = Cluster.create ~nodes:4 (Repro_sim.Config.default) in
      let pages = Cluster.allocate_pages cluster ~owner:0 ~count:16 in
      let t = Cluster.begin_txn cluster ~node:1 in
      Cluster.update_delta cluster ~txn:t ~pid:(List.hd pages) ~off:0 1L;
      Cluster.commit cluster ~txn:t;          (* zero messages! *)
      Cluster.crash cluster ~node:1;
      Cluster.recover cluster ~nodes:[ 1 ]    (* §2.3 protocol *)
    ]} *)

type t

val create :
  ?trace:bool ->
  ?trace_capacity:int ->
  ?seed:int ->
  ?faults:Repro_fault.Injector.t ->
  ?pool_capacity:int ->
  ?log_capacity:int ->
  ?scheme:Node_state.scheme ->
  ?retain_cached_locks:bool ->
  nodes:int ->
  Repro_sim.Config.t ->
  t
(** [pool_capacity] defaults to 64 pages per node; [log_capacity]
    (bytes) defaults to unbounded; [scheme] defaults to the paper's
    {!Node_state.Local_logging} (baselines: see {!Node_state.scheme}).
    [seed] selects nothing: the cluster draws no random numbers
    (workloads and fault plans carry their own seeds).  It is accepted
    so that existing callers keep compiling. *)

val env : t -> Repro_sim.Env.t
val node_count : t -> int
val node : t -> int -> Node.t
val now : t -> float
(** Simulated seconds elapsed. *)

(** {1 Database population} *)

val allocate_pages : t -> owner:int -> count:int -> Repro_storage.Page_id.t list

(** {1 Transactions}

    All operations may raise {!Block.Would_block}; callers either use
    the workload driver (which retries and wounds younger blockers) or treat
    it as an error. *)

val begin_txn : t -> node:int -> int
(** Returns the new transaction's cluster-wide id. *)

val read : t -> txn:int -> pid:Repro_storage.Page_id.t -> off:int -> len:int -> string
val read_cell : t -> txn:int -> pid:Repro_storage.Page_id.t -> off:int -> int64
val update_bytes : t -> txn:int -> pid:Repro_storage.Page_id.t -> off:int -> string -> unit
val update_delta : t -> txn:int -> pid:Repro_storage.Page_id.t -> off:int -> int64 -> unit
val commit : t -> txn:int -> unit
(** With group commit enabled, [commit] may return with the transaction
    still [Committing] (in its node's pending batch, not yet durable);
    poll {!commit_outcome} and drive {!pump_group_commit}.  Otherwise
    the commit is durable on return. *)

val commit_outcome : t -> txn:int -> [ `Pending | `Durable | `Gone ]
(** Where a submitted commit stands.  [`Pending]: still in the node's
    batch, not durable — keep pumping; with early lock release on, a
    durable commit is also held at [`Pending] while a commit dependency
    on a not-yet-durable antecedent is open (the wait feeds the
    [dep_wait] histogram).  [`Durable]: the commit record was forced
    and every antecedent settled; read-once (a second call answers
    [`Gone]).  [`Gone]: the batch was lost to a crash before its force
    — or a lost antecedent dragged this transaction down with its
    dependency closure — the transaction never committed and restart
    rolls it back. *)

val commit_antecedents : t -> txn:int -> int list
(** Open early-lock-release commit dependencies of [txn] (empty when
    unconstrained; for tests and invariant checks). *)

val dep_edge_count : t -> int
(** Live commit-dependency edge count. *)

val dep_edges_registered : t -> int
(** Lifetime count of commit-dependency edges ever recorded — how often
    early release actually exposed pre-durable state. *)

val pump_group_commit : t -> idle:bool -> bool
(** Drive the group-commit timers: flush every batch whose window has
    expired.  With [idle:true] (no client made progress this round) and
    no batch due, advances the simulated clock to the earliest batch
    deadline and flushes — the timer firing.  Returns whether any batch
    moved. *)

val abort : t -> txn:int -> unit
val savepoint : t -> txn:int -> string -> unit
val rollback_to : t -> txn:int -> string -> unit

(** {1 Maintenance, failures, recovery} *)

val checkpoint : t -> node:int -> unit
val crash : t -> node:int -> unit
(** The node's in-flight transactions are lost with its volatile state
    (they are losers; restart will roll them back). *)

val recover : ?strategy:Recovery.strategy -> ?defer:int list -> t -> nodes:int list -> unit
(** §2.3 for a single node, §2.4 for several.  [strategy] defaults to
    the paper's PSN-coordinated protocol; [Merged_logs] is the E4
    baseline.

    Every down node must appear in exactly one of [nodes] (recover it
    now) or [defer] (leave it down {e intentionally}: its own pages are
    skipped, and any redo that needs its log records parks on it —
    deferred recovery — instead of erroring).  A down node in neither
    list is a caller mistake and raises [Invalid_argument] naming the
    offending node(s); so does listing a node in both, listing it twice
    in [nodes] (it would be analysed, and its losers rolled back,
    twice), or deferring a node that is up. *)

val recover_until_up : ?defer:int list -> t -> unit
(** Recovers every down node not in [defer] (default none), together,
    and re-enters until none is left.  An attempt aborted by a crash at
    a recovery crash point leaves its nodes down — and can fell an
    operational node mid-completion — so each attempt covers the whole
    current down set; the aborting [Block.Would_block] is swallowed.
    The injector's crash and partition budgets bound the retries.
    @raise Failure naming the nodes still down after 100 attempts, so a
    livelock fails loudly. *)

val recover_timed :
  ?strategy:Recovery.strategy -> ?defer:int list -> t -> nodes:int list -> Recovery.summary
(** Like {!recover}, additionally returning the per-phase timing
    breakdown (E4/E5/E8 reporting). *)

(** {1 Introspection} *)

val global_metrics : t -> Repro_sim.Metrics.t
(** The cluster-wide counters: a fresh field-wise sum of every node's
    metrics, in id order.  Nodes hold the only copy, so this is a
    point-in-time value — read it again after more work. *)

val node_metrics : t -> int -> Repro_sim.Metrics.t
(** Node [id]'s live counters. *)

val check_invariants : t -> unit
(** Per-node invariants plus cross-node lock-table consistency: every
    node-level lock cached at a client is present in the owner's table
    with a covering mode, and vice versa. *)
