(** The claim-derived experiment suite (see DESIGN.md §3).

    The ICDE'96 paper contains no result tables or figures (Figure 1 is
    the architecture diagram), so every experiment here regenerates a
    quantitative claim of the text; each function runs its scenario,
    {e verifies the durability oracle}, and returns the table recorded
    in EXPERIMENTS.md.  [quick] shrinks the workloads (used by the
    Bechamel wrappers so wall-time measurement stays reasonable). *)

val f1 : ?quick:bool -> unit -> Report.t
(** Figure 1 topology runs as described: four networked nodes, two with
    databases; commit path of every client is message-free. *)

val e1 : ?quick:bool -> unit -> Report.t
(** Commit path cost per scheme × remote-update fraction (§1.1, §3). *)

val e2 : ?quick:bool -> unit -> Report.t
(** Throughput scaling with client count; server-based logging
    bottlenecks on the server (§1.2, §4). *)

val e3 : ?quick:bool -> unit -> Report.t
(** Commit latency vs network latency: CBL's commit is flat (§1.1). *)

val e4 : ?quick:bool -> unit -> Report.t
(** Recovery without log merging vs the merged-log baseline (§2.3,
    §3.2). *)

val e5 : ?quick:bool -> unit -> Report.t
(** Recovery cost vs number of involved nodes — NodePSNList
    coordination (§2.3.4). *)

val e6 : ?quick:bool -> unit -> Report.t
(** Log space management keeps small logs alive (§2.5). *)

val e7 : ?quick:bool -> unit -> Report.t
(** Independent fuzzy checkpoints: frequency costs no messages and
    bounds restart analysis (§2.2, §4 advantage 4). *)

val e8 : ?quick:bool -> unit -> Report.t
(** Multiple simultaneous node crashes (§2.4). *)

val e9 : ?quick:bool -> unit -> Report.t
(** Inter-transaction caching of locks and pages cuts lock messages
    (§2.1/§2.2). *)

val e10 : ?quick:bool -> unit -> Report.t
(** Pages exchanged between nodes without disk forces (§3.2 vs
    Rdb/VMS and the medium scheme of Mohan–Narang). *)

val e11 : ?quick:bool -> unit -> Report.t
(** Group commit: committed txn/s and commit latency as the batching
    window and batch cap grow; the unbatched row is today's commit
    path. *)

val e12 : ?quick:bool -> unit -> Report.t
(** Restartable recovery: mid-recovery crashes, re-entry, deferral and
    completion of parked pages. *)

val e13 : ?quick:bool -> unit -> Report.t
(** Commit-latency attribution: the E11 workload re-run with causal
    tracing, decomposed by {!Repro_obs.Critical_path} into lock wait /
    batch wait / log force / network / owner service; components must
    agree with the driver's independently measured latency within
    5%. *)

val e14 : ?quick:bool -> unit -> Report.t
(** Big-cluster scale: committed txn/s, p95 commit latency and abort
    rate as the simulated world grows to 64 nodes / 512 clients on a
    named {!Repro_workload.Scale} profile.  [cblsim scale] drives the
    same machinery to 256 nodes / thousands of clients and adds
    wall-clock sim-events/sec. *)

val e15 : ?quick:bool -> unit -> Report.t
(** Early lock release (controlled lock violation): the contended
    hot-page workload at rising MPL, elr off vs on.  With elr on, a
    committing transaction's page locks drop at batch-submit and later
    acquirers run under commit dependencies; the gate demands a >= 20%
    p95 commit-latency cut and higher txn/s at the highest MPL. *)

val scale_point :
  ?seed:int ->
  ?mpl:int ->
  ?pages_per_node:int ->
  ?txns_per_client:int ->
  nodes:int ->
  clients:int ->
  profile:string ->
  unit ->
  Repro_cbl.Cluster.t * Repro_workload.Driver.outcome
(** One deterministic big-cluster run on a named {!Repro_workload.Scale}
    profile: [nodes] owner nodes, [clients] scripted clients homing
    round-robin, durability oracle checked.  Returns the cluster for its
    counters.  Raises on an unknown profile name. *)

val scale_header : string list
(** Column names shared by E14 and the [cblsim scale] report. *)

val scale_row :
  nodes:int -> clients:int -> profile:string -> Repro_workload.Driver.outcome -> string list
(** Render one {!scale_point} outcome as a {!scale_header} row. *)

val scale_abort_rate : Repro_workload.Driver.outcome -> float
(** Aborts over (commits + aborts), both kinds of abort counted. *)

val group_commit_run :
  ?trace:bool ->
  quick:bool ->
  int * float ->
  Repro_cbl.Cluster.t * Repro_workload.Driver.outcome
(** The E11/E13 workload: 8 conflict-free clients on one node at a
    given [(max_batch, window_ms)] group-commit setting, durability
    oracle checked.  Exposed for the tracing-overhead bench, which runs
    it with [trace] off and on and compares. *)

val elr_run :
  ?quick:bool ->
  early_release:bool ->
  clients:int ->
  unit ->
  Repro_cbl.Cluster.t * Repro_workload.Driver.outcome
(** The E15 workload: [clients] clients hammering one node's shared
    Zipf hot set under a 10 ms group-commit window, with or without
    early lock release, durability oracle checked.  Exposed for the
    lock-hold bench, which compares the two lock-hold histograms. *)

val all : ?quick:bool -> unit -> Report.t list
(** Every experiment, in order. *)

val by_id : string -> (?quick:bool -> unit -> Report.t) option
(** Lookup by "F1" / "E1" ... (case-insensitive). *)

val ids : string list
