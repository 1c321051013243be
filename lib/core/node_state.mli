(** The state record of one node (Figure 1 of the paper) and the
    network choke point.

    Protocol code lives in [Node] and [Recovery]; this module only
    constructs and wires the record.  The fields are deliberately
    exposed — [node.ml]/[cluster.ml]/[recovery.ml] implement the
    protocol phases directly over them (the "shared type definitions"
    exception to the no-open rule) — but everything else a node can do
    goes through the functions below: the tracer wiring is private, and
    all cross-node traffic must pass {!send}/{!send_dup} so the fault
    injector and the message accounting see every exchange. *)

(** Which logging architecture the cluster runs.  [Local_logging] is
    the paper's contribution; the others are the §3 comparators,
    sharing the identical cache / lock / page-transfer substrate so
    that only the logging architecture differs in the measured
    counters.  Crash recovery is implemented for [Local_logging] only;
    the baselines are normal-processing comparators (E1-E3, E10). *)
type scheme =
  | Local_logging
      (** client-based logging: every node logs locally, commit = one
          local log force, zero messages *)
  | Server_logging of { server : int }
      (** ARIES/CSA-flavoured: clients ship all their log records to
          the server at commit; the server holds the only durable log *)
  | Pca_double_logging
      (** Rahm's primary-copy-authority: at commit every updated remote
          page travels to its PCA node together with its log records,
          which are appended to that node's log as well *)
  | Global_log of { log_node : int }
      (** Rdb/VMS-flavoured: one shared log appended to over the
          network; pages are forced to disk before inter-node
          transfer *)

(** Fields are grouped by durability: the disk, the allocation map, the
    log device and the master record survive a crash; everything else
    is volatile and wiped by [Node.crash]. *)
type t = {
  id : int;
  env : Repro_sim.Env.t;
  metrics : Repro_sim.Metrics.t;
      (** this node's counters — the only copy; the cluster-wide
          figure is summed from the nodes on read *)
  (* durable state *)
  disk : Repro_storage.Disk.t;
  alloc : Repro_storage.Alloc_map.t;
  log : Repro_wal.Log_manager.t;
  master : Repro_aries.Master.t;
  gc : Repro_wal.Group_commit.t;
      (** group-commit batch over [log].  The pending batch itself is
          volatile ([Node.crash] drops it); listed with the durable
          fields only because it wraps the log manager. *)
  (* volatile state *)
  mutable up : bool;
  mutable pool : Repro_buffer.Buffer_pool.t;
  locks : Repro_lock.Local_locks.t;  (** client role: cached + txn-level locks *)
  glocks : Repro_lock.Global_locks.t;  (** owner role: node-level locks on owned pages *)
  dpt : Repro_buffer.Dpt.t;
  txns : Repro_tx.Txn_table.t;
  flush_waiters : int list Repro_storage.Page_id.Tbl.t;
      (** owner role, §2.5: nodes to notify when an owned page is forced *)
  reservations : (int * int) Repro_storage.Page_id.Tbl.t;
      (** owner role, fairness: (txn, node) of the oldest blocked
          requester of a contested page *)
  mutable recovering_pages : Repro_storage.Page_id.Set.t;
      (** owned pages whose recovery is in progress; requests are stopped *)
  deferred_pages : int Repro_storage.Page_id.Tbl.t;
      (** owner role: owned pages whose recovery is parked on a down
          peer (pid -> blocking node); access raises a retryable
          [Page_unavailable] until the blocker recovers *)
  mutable deferred_losers : (int * int) list;
      (** loser transactions whose rollback is parked on a down peer
          ((txn, blocking node)); the Txn stays registered so a later
          analysis re-finds it *)
  (* wiring *)
  mutable resolve : int -> t;
  mutable on_dep : dependent:int -> antecedent:int -> bool;
      (** commit-dependency sink, wired by [Cluster] to the
          cluster-wide dependency graph; returns whether the edge is
          new (fresh edges emit the [commit.dep] trace event).  Default
          for standalone nodes: no graph, nothing fresh *)
  pool_capacity : int;
  scheme : scheme;
  retain_cached_locks : bool;
      (** inter-transaction caching of locks and pages (§2.1);
          disabled only by the E9 ablation *)
}

val create :
  Repro_sim.Env.t ->
  id:int ->
  pool_capacity:int ->
  log_capacity:int option ->
  scheme:scheme ->
  retain_cached_locks:bool ->
  t
(** A fresh node with its observability tracers wired.  [resolve]
    initially maps every id to the node itself; [Cluster.create]
    re-points it at the membership array. *)

val peer : t -> int -> t
(** Resolve a node id through the cluster wiring. *)

val send : t -> dst:int -> ?commit_path:bool -> ?recovery:bool -> bytes:int -> unit -> unit
(** Charge a message from [t] to [dst]; local sends (dst = self) cost
    nothing.  This is the single network choke point: with a fault
    injector installed, lost attempts are retransmitted after an RTO
    and bounded queueing delays model reordering — the message always
    eventually arrives, so exchanges never fail halfway. *)

val send_dup : t -> dst:int -> ?commit_path:bool -> ?recovery:bool -> bytes:int -> unit -> bool
(** Like {!send}, but additionally asks the injector whether the
    network duplicates the message.  [true] on duplication; call ONLY
    where the receive path is idempotent, re-running the delivery to
    prove it. *)

val link_up : t -> dst:int -> bool
(** Probe the (injected-partition-aware) link before a multi-step
    exchange.  [false] means partitioned: back off {e before} mutating
    state on either side.  Each failed probe costs one RTO and drains
    the partition's budget, so retries always heal it. *)

val ensure_link : t -> dst:int -> unit
(** {!link_up} or raise the retryable [Block.Net_unreachable]. *)
