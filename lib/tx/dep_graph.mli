(** Commit-dependency graph for early lock release (controlled lock
    violation).

    A transaction that reads or overwrites a page whose lock was
    released early (at batch-submit, before the releaser's commit record
    was forced) records a commit dependency on the releaser.  Two rules
    follow:

    - a dependent may not report durable before its antecedents
      ({!durable_blocked});
    - an aborted or lost antecedent drags its whole forward dependency
      closure down with it ({!settle_lost}) — PR 3's whole-batch-loss
      invariant generalised to closure loss.

    Transaction ids are globally unique, so one graph serves the whole
    cluster. *)

type t

val create : unit -> t

val clear : t -> unit
(** Drop every edge (full-cluster reset). *)

val add : t -> dependent:int -> antecedent:int -> bool
(** Record that [dependent] observed pre-durable state of [antecedent].
    Self-edges are ignored.  Returns [true] iff the edge is new. *)

val antecedents_of : t -> int -> int list
(** Pending antecedents of a transaction (empty when unconstrained). *)

val dependents_of : t -> int -> int list
(** Transactions that recorded a dependency on this one. *)

val durable_blocked : t -> int -> int list
(** The antecedents a transaction must wait on before reporting
    [`Durable]; [[]] means it may settle now. *)

val settle_durable : t -> int -> unit
(** The transaction's commit record is durable: its outgoing edges are
    satisfied and removed. *)

val settle_lost : t -> int list -> int list
(** The seed transactions died (aborted, or lost with their batch):
    returns their forward dependency closure — every transaction that
    must now abort, excluding the seeds themselves — in deterministic
    breadth-first order, and removes all affected edges. *)

val edge_count : t -> int
(** Live edge count (for tests and invariant checks). *)

val registered_count : t -> int
(** Lifetime count of fresh edges ever added — settling does not
    decrement it (reporting: "how often did early release actually
    expose pre-durable state"). *)

val pp : Format.formatter -> t -> unit
