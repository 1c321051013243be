(** PSN-exact redo (§2.1, §2.3.4).

    A logged operation applies to a page iff the page's current PSN
    equals the PSN the log record saw just before the update
    ([psn_before]).  After application the PSN becomes
    [psn_before + 1] — precisely the state the updater left behind.
    Any record with [psn_before < psn] is already reflected; a record
    with [psn_before > psn] belongs to a {e later} position in the
    cross-node order and must wait for other nodes' redo rounds. *)

type verdict =
  | Applied  (** PSNs matched; the page advanced by one update *)
  | Already_applied  (** record older than the page state *)
  | Not_yet  (** record ahead of the page state: another node's turn *)

val apply :
  Repro_storage.Page.t -> psn_before:int -> op:Repro_wal.Record.update_op -> verdict
(** Applies the operation and bumps the PSN when the guard matches. *)
