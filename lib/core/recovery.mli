(** Node crash recovery — §2.3 (single crash) and §2.4 (multiple).

    [run ~crashed ~operational] restarts the crashed nodes by running
    these steps, in this order, each timed under its own name:

    + [analysis] (per crashed node, §2.3.1/§2.4): scan the local log
      from the last complete checkpoint, rebuilding a superset of the
      DPT and the loser transactions.
    + [lock_reconstruction] (§2.3.3): operational owners release the
      crashed nodes' shared locks and report retained exclusive ones;
      each crashed node rebuilds its owner-side table from the locks
      peers cached on its pages, and re-acquires its losers' X locks.
    + [gather] (§2.3.1/§2.4, §2.3.2): one job per page that may need
      recovery: (a) a crashed owner's pages, from every node's cache
      listing and DPT entries (a page alive in an operational cache is
      fetched instead); (c) pages an earlier recovery parked on a node
      of this batch; (b) operational owners' pages a crashed node held
      X-locked.  A node is involved iff its DPT entry's CurrPSN exceeds
      the base (most recent surviving) version's PSN; others drop or
      refresh their entries.  Job pages are then X-locked.
    + [psn_lists] then [redo] (§2.3.4, {!Psn_coordinated}): involved
      nodes build NodePSNLists with one log scan each; the coordinator
      ships the page from node to node in PSN order, each applying its
      own log records, PSN-guarded.  {e No log is ever merged.}  Or
      [merge_pull] then [redo] ({!Merged_logs}).
    + [undo]: each crashed node rolls back its own losers with CLRs from
      its own log, then resumes normal processing.
    + [checkpoint] (live-fault mode only): force the undo records and
      checkpoint, bounding the next analysis.

    The paper's requirements hold by construction: logs are only read by
    their owning node, checkpoints and clocks of other nodes are never
    consulted, and the whole protocol exchanges pages and small lists,
    never log records.

    {b Restartability.}  Recovery itself may be interrupted: when the
    fault plan gives the [recovery] fault class probability, the
    injector stays armed through {!run} and named crash points fire
    after analysis, mid-redo, before undo, mid-undo and at the
    end-of-restart checkpoint, surfacing as [Would_block (Node_down _)].
    The attempt is abandoned wholesale — no page's claims settle until
    that page's redo completed, so nothing partial is durable — and
    re-entering {!run} with the newly-crashed node added to [crashed]
    resets all volatile recovery state, reruns every step from durable
    state and converges to the same durable outcome.  Peer exchanges retry through injected drops and
    partitions with bounded exponential backoff.

    {b Deferred recovery.}  When a page's redo needs log records of a
    node that is down and {e not} in this batch (a PSN gap during
    redo), the page is parked in its owner's deferred set: the
    regranted locks are retained, access raises a retryable
    [Page_unavailable], and the parked redo completes automatically in
    the first {!run} whose [crashed] list contains the blocking node.
    Loser rollbacks blocked the same way park in [deferred_losers] and
    resume then too.  Pages owned by a [deferred] node are left to that
    node's own later recovery. *)

type strategy =
  | Psn_coordinated
      (** the paper's §2.3.4 protocol: NodePSNLists + PSN-ordered page
          rounds; each node reads only its own log, no log ever moves *)
  | Merged_logs
      (** the comparison baseline (the fast/super-fast schemes of
          Mohan–Narang, §3.2): every node scans its whole log from its
          last checkpoint and ships {e all} records to the recovering
          coordinator, which merges them per page by PSN.  Produces the
          same final state at a very different cost — experiment E4. *)

type summary = {
  phases : (string * float) list;
      (** simulated seconds per phase, in execution order: analysis,
          lock_reconstruction, gather, then psn_lists + redo
          (coordinated) or merge_pull + redo (merged), then undo, then
          checkpoint when the fault plan arms recovery crash points *)
  total_seconds : float;
}

val summary_to_json : summary -> Repro_obs.Json.t

val run :
  ?strategy:strategy ->
  ?deferred:Node_state.t list ->
  crashed:Node_state.t list ->
  operational:Node_state.t list ->
  unit ->
  summary
(** Recovers all [crashed] nodes (they must be down); [operational] are
    the surviving peers (must be up); [deferred] (default empty) names
    down nodes {e intentionally excluded} from this batch — their own
    pages are skipped and any redo that needs their log records parks
    on them instead of erroring.  On return every crashed node is up,
    its committed updates are restored, its losers rolled back (or
    parked on a [deferred] node), and lock tables cluster-wide are
    consistent.  [strategy] defaults to the paper's {!Psn_coordinated}.
    The returned summary reports where simulated recovery time went;
    the same numbers also land in the environment's [recovery.*]
    histograms and, when tracing, as [Recovery_phase] events.

    May raise [Would_block (Node_down _)] when a recovery-class crash
    point fires mid-protocol: the attempt is aborted (see
    {e Restartability} above) and the caller re-enters with the grown
    crashed set. *)
