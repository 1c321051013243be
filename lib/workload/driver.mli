(** The workload driver: runs scripts against an engine, with retry,
    wound-wait conflict resolution and a durability oracle.

    Scripts are interleaved round-robin, one action per round, which
    manufactures realistic lock contention.  A step that raises
    [Would_block] is retried on a later round.  On a lock conflict the
    older transaction wounds (aborts) every {e younger} blocker that is
    not already committing, and a younger waiter simply waits: no
    waits-for cycle can form and no script starves.  A wounded script
    restarts from the top with a fresh transaction.

    Scheduling is a wake-time run queue: each program carries the round
    it next acts in, and rounds drain a binary min-heap keyed on
    (wake round, program index) — O(log n) per scheduling event instead
    of the legacy O(clients) scan per round.  The pop order within a
    round is ascending program index, so schedules (and therefore every
    RNG draw and simulated-clock advance) are bit-identical to the old
    linear scan.  A script waiting to begin on a node at its [mpl] cap
    is parked on a per-node admission queue instead of being re-polled
    every round, and rejoins the run queue, lowest index first, on a
    round when its node has a free slot.

    The driver maintains a {b shadow} of every delta-updated cell,
    applied only at commit.  {!verify} re-reads all shadow cells through
    the engine and reports mismatches — the central correctness oracle:
    after any crash / recovery schedule, committed effects must be
    exactly present and uncommitted effects exactly absent. *)

type event =
  | Crash of int
  | Recover of int list
  | Checkpoint of int

type outcome = {
  engine : Engine.t;
  committed : int;
  voluntary_aborts : int;
  deadlock_aborts : int;
      (** wounds plus forced self-aborts (a transaction blocked only by
          itself): each restarts its script, which still finishes *)
  stuck : int;  (** scripts that could not finish — 0 on a healthy run *)
  rounds : int;
  sched_events : int;
      (** programs due each round, dispatched or parked: a script
          parked on the admission queue counts once per round it waits,
          as if it were still polled, so the count equals the legacy
          per-round scan's visits.  The deterministic unit of scheduler
          work (basis for sim-events/sec in scale runs). *)
  sim_seconds : float;  (** simulated time consumed by the run *)
  latencies : Repro_util.Stats.summary;  (** commit latency, simulated seconds *)
  shadow : ((Repro_storage.Page_id.t * int) * int64) list;  (** expected committed cell values *)
}

val run :
  Engine.t ->
  ?events:(int * event) list ->
  ?max_rounds:int ->
  ?mpl:int ->
  ?auto_recover:int ->
  Op.script list ->
  outcome
(** [events] fire at the start of the given round (0-based).
    [max_rounds] defaults to a generous bound; exceeding it marks the
    remaining scripts stuck rather than looping forever.  [mpl] caps
    the in-flight transactions per node (multiprogramming level);
    surplus scripts queue to begin.  [auto_recover], for fault-injected
    runs, schedules a [Recover] that many rounds after a node is first
    seen down (injected crash points fire without a matching event) and
    restarts the scripts stranded on it. *)

val verify : outcome -> (unit, string list) result
(** Reads every shadow cell back through the engine (at the first
    operational node) and compares. *)

val pp_outcome : Format.formatter -> outcome -> unit
