(** The randomized crash-schedule scenario: the durability oracle's
    evidence that §2.3/§2.4 restart recovery keeps every committed
    effect.

    One seed fully determines a run: a random topology (2–5 nodes,
    1–3 owners, pool and database sizes), a random partitioned
    workload, a staggered crash/recover schedule with recovery
    strategies alternating by seed parity, and — when faults are on —
    a fault plan, mid-workload checkpoints and driver auto-recovery.
    After the driver finishes, every down node is recovered
    ({!Repro_cbl.Cluster.recover_until_up}) and the cluster's
    invariants are checked.  [cblsim stress] verifies the outcomes
    and replays each traced run through the protocol auditor, and the
    regression tests pin seeds that once exposed bugs. *)

val run :
  ?trace:bool ->
  ?plan:Repro_fault.Fault_plan.t ->
  classes:Repro_fault.Fault_plan.classes ->
  group_commit:bool ->
  elr:bool ->
  int ->
  Repro_cbl.Cluster.t * Driver.outcome * Repro_fault.Fault_plan.t option
(** [run ~classes ~group_commit ~elr seed] runs the scenario for [seed]
    and returns the recovered cluster, the driver's outcome (check it
    with {!Driver.verify}) and the fault plan used, if any.

    Faults are on when a [plan] is given (replayed as is) or any class
    in [classes] is set (a plan is drawn from a split substream of the
    seed).  [group_commit] draws a batching window and cap from their
    own substream (about 3/4 of the seeds get one); [elr] likewise draws
    the early-lock-release bit, which only takes effect with a batching
    window.  With every flag off no substream is drawn, so historical
    seeds replay bit-identically.  [trace] (default off) records events
    into a 2{^20}-event ring; tracing changes no metric or clock
    reading. *)
