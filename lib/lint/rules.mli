(** The repo-specific rule registry.

    Every rule is grounded in a bug class this repo has actually
    shipped and fixed (see CHANGES.md and DESIGN.md "Static protocol
    checking").  Five of them are interprocedural: they share one
    whole-repo {!Summary}/{!Callgraph}/{!Propagate} analysis, memoized
    per run.

    - [ipc-force-sweep] — a log force outside the force-implementation
      layer must have a [Group_commit.on_force] sweep reachable in its
      call neighborhood (PR 3's force-to-device-end invariant, now
      surviving code motion across function/module boundaries).
    - [swallowed-control-exn] — no catch-all exception handlers in
      [lib/]: they can absorb the [Crash]/[Node_down] control
      exceptions (PR 2's eviction-chain bug).
    - [rng-discipline] — stdlib [Random] only in the designated RNG
      module; no [Random.self_init]/[Unix.gettimeofday]/[Sys.time] in
      [lib/] (seed replay must stay bit-identical).
    - [no-poly-compare] — no polymorphic [=]/[compare]/[Hashtbl.hash]
      on identifiers naming mutable protocol state (frames, pages,
      descriptors); use the module's explicit [equal].
    - [no-unsafe-obj] — no [Obj.*] in [lib/].
    - [ipc-elr-pairing] — an early lock release outside [lib/lock]
      must have an [elr_record_release] reachable in its call
      neighborhood (PR 8's commit-dependency invariant; release and
      recording may live in different functions).
    - [exn-flow] — every raise of a retryable control exception in
      [lib/] must be able to reach a matching [Would_block] handler on
      some call path.
    - [dead-handler] — an explicit [Would_block] handler must be
      feedable by something its guarded body reaches.
    - [rng-reachability] — sim-RNG draws in [lib/] must be reachable
      from a seeded ([Rng.create]/[Rng.split]) root.

    What the compiler can check is left to it, not to a rule: the crash
    points are one variant matched exhaustively ([Fault_plan.point]),
    the [Event] codec and its consumers build with warning 4 (fragile
    match) as an error, and [lib/dune] makes warning 70 (missing
    [.mli]) an error. *)

val all : Lint.rule list
(** In reporting order; ids are unique. *)

val find : string -> Lint.rule option
