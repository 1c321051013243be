(** The claim-derived experiment suite (see DESIGN.md §3).

    The ICDE'96 paper contains no result tables or figures (Figure 1 is
    the architecture diagram), so every experiment here regenerates a
    quantitative claim of the text.  Each is a {!Spec.t}: its sweep runs
    scenarios that {e verify the durability oracle}, its columns render
    the table recorded in EXPERIMENTS.md, and its claims are predicates
    over the typed rows that {!Spec.run} judges.  A quick run shrinks
    the workloads (tests, the bench smoke and the Bechamel wrappers). *)

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

val all : Spec.t list
(** Every experiment, in order: F1, E1 … E15. *)

val by_id : string -> Spec.t option
(** Lookup by "F1" / "E1" ... (case-insensitive). *)

val ids : string list
