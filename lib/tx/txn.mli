(** Transaction descriptors.

    Transactions execute entirely at the node where they start (§2.1).
    Ids are issued by a cluster-wide counter so that they are unique
    across nodes — lock-conflict blockers and the recovery messages can
    then name transactions unambiguously.  Lower id = older, which the
    driver's wound-wait policy relies on. *)

type state = Active | Committing | Committed | Aborted
(** [Committing]: the commit record is appended and the transaction
    sits in the node's group-commit batch awaiting the shared force.
    Not active — it runs no further operations and holds no waits — and
    not durable: a crash before the batch force loses it and recovery
    aborts it. *)

type t = {
  id : int;
  node : int;  (** the node executing the transaction *)
  mutable state : state;
  mutable last_lsn : Repro_wal.Lsn.t;  (** head of the undo chain *)
  mutable first_lsn : Repro_wal.Lsn.t;
      (** the transaction's first record; log space below the oldest
          active transaction's [first_lsn] must not be reclaimed (its
          rollback needs it) *)
  mutable savepoints : (string * Repro_wal.Lsn.t) list;
      (** savepoint name -> LSN of its [Savepoint] record, newest first *)
  mutable logged_records : int;  (** records written so far (baseline accounting) *)
  mutable logged_bytes : int;  (** encoded bytes of those records *)
  mutable remote_updated : Repro_storage.Page_id.Set.t;
      (** distinct remote pages updated — what the PCA baseline must
          ship at commit *)
  mutable began : float;  (** simulated start time; feeds commit-latency histograms *)
  mutable locks_from : float;
      (** simulated time of the first successful lock acquire, [-1.]
          while none held; feeds the lock-hold-duration histogram that
          the early-lock-release bench compares on/off *)
}

val make : id:int -> node:int -> t
val is_active : t -> bool

val record_logged : t -> Repro_wal.Lsn.t -> unit
(** Maintain [last_lsn] after appending a record for this transaction. *)

val add_savepoint : t -> string -> Repro_wal.Lsn.t -> unit

val savepoint_lsn : t -> string -> Repro_wal.Lsn.t option
(** Most recent savepoint with that name. *)

val release_savepoints_after : t -> Repro_wal.Lsn.t -> unit
(** Partial rollback to [lsn] invalidates savepoints set after it. *)
