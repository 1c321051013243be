(** The repo-specific rule registry.

    Every rule is grounded in a bug class this repo has actually
    shipped and fixed (see CHANGES.md and DESIGN.md "Static protocol
    checking").  Each is a per-file Parsetree walk.

    - [swallowed-control-exn] — no catch-all exception handlers in
      [lib/]: they can absorb the [Crash]/[Node_down] control
      exceptions (the eviction-chain bug).
    - [rng-discipline] — stdlib [Random] only in the designated RNG
      module; no [Random.self_init]/[Unix.gettimeofday]/[Sys.time] in
      [lib/] (seed replay must stay bit-identical).
    - [no-poly-compare] — no polymorphic [=]/[compare]/[Hashtbl.hash]
      on identifiers naming mutable protocol state (frames, pages,
      descriptors); use the module's explicit [equal].
    - [no-unsafe-obj] — no [Obj.*] in [lib/].

    What the code itself guarantees is left to it, not to a rule: the
    crash points are one variant matched exhaustively
    ([Fault_plan.point]), the [Event] codec and its consumers build
    with warning 4 (fragile match) as an error, and [lib/dune] makes
    warning 70 (missing [.mli]) an error.  Every log force runs the
    log's after-force hook, where the group-commit batch installs its
    sweep ([Log_manager.set_after_force]); every early lock release
    registers its releaser inside [Local_locks.release_txn_early]; and
    a simulated-RNG stream can only come from [Rng.create] or
    [Rng.split], because [Rng.t] is abstract.  That a retryable
    [Would_block] is retried rather than lost is left to the tests
    that drive the retry paths: the stress sweeps, the recovery-fault
    seeds and per-handler regression tests. *)

val all : Lint.rule list
(** In reporting order; ids are unique. *)

val find : string -> Lint.rule option
