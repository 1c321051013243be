(** A node's table of transactions.

    Holds active transactions (volatile — lost on crash; restart
    analysis rebuilds the losers from the log) and remembers terminated
    ones only for the test oracle. *)

type t

val create : unit -> t
val register : t -> Txn.t -> unit
val find : t -> int -> Txn.t option
val find_exn : t -> int -> Txn.t
val active : t -> Txn.t list
val remove : t -> int -> unit

val live : t -> Txn.t list
(** Active plus [Committing] transactions.  A committing transaction
    still pins the log (its undo chain must survive until its commit
    record is durable), so log-space reclamation bounds on [live], not
    [active]. *)

val snapshot_active : t -> Repro_wal.Record.active_txn list
(** For the fuzzy checkpoint's transaction-table image. *)

val clear : t -> unit
(** Node crash. *)
