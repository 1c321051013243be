(** The dirty page table (DPT) — the paper's central bookkeeping
    structure (§2.2), one per node.

    An entry exists for every page this node has dirtied whose updates
    may not yet be on the owner's disk, whether the page is locally
    cached or has been replaced and shipped to its owner.  Fields follow
    the paper exactly:

    - [psn_first] ("PSN"): the page's PSN the first time it was dirtied;
    - [curr_psn] ("CurrPSN"): PSN after the latest local update;
    - [redo_lsn] ("RedoLSN"): LSN of the earliest local log record that
      must be redone for the page.

    Entry lifecycle (§2.2):
    - added when the node obtains an X lock and no entry exists —
      [redo_lsn] is conservatively the current end of the log;
    - [curr_psn] maintained on every local update;
    - for a locally-owned page, dropped when the page is forced to the
      local disk;
    - for a remote page, dropped when the owner's flush
      acknowledgement arrives {e and} the page was not updated again
      after its last replacement; if it {e was} updated again, the entry
      survives and its [redo_lsn] advances to the end-of-log LSN the
      node remembered when it last replaced the page (§2.5).

    [min_redo_lsn] bounds log truncation (§2.5): the log below it is
    dead. *)

open Repro_storage

type entry = {
  pid : Page_id.t;
  mutable psn_first : int;
  mutable curr_psn : int;
  mutable redo_lsn : Repro_wal.Lsn.t;
  mutable replaced_at : Repro_wal.Lsn.t;
      (** end-of-log remembered when the page was last replaced while
          dirty; [Lsn.nil] when the page has not been replaced *)
  mutable updated_since_replacement : bool;
}

type t

val create : unit -> t
val find : t -> Page_id.t -> entry option
val mem : t -> Page_id.t -> bool

val add_if_absent : t -> Page_id.t -> page_psn:int -> end_of_log:Repro_wal.Lsn.t -> unit
(** §2.2 entry creation on X-lock acquisition. *)

val on_update : t -> Page_id.t -> new_psn:int -> unit
(** Maintain [curr_psn] after a local update; also marks the page
    updated-since-replacement. *)

val on_replaced : t -> Page_id.t -> end_of_log:Repro_wal.Lsn.t -> unit
(** The dirty page was just evicted and shipped to its owner: remember
    the current end of the log (§2.5). *)

val on_flush_ack : t -> Page_id.t -> flushed_psn:int -> unit
(** Owner reports the page durable up to [flushed_psn]: drop or advance
    per the lifecycle above.  An entry whose [curr_psn] exceeds
    [flushed_psn] (its updates are not yet covered by the durable
    version) is kept untouched. *)

val drop : t -> Page_id.t -> unit
val set_redo_lsn : t -> Page_id.t -> Repro_wal.Lsn.t -> unit
val min_redo_lsn : t -> Repro_wal.Lsn.t option
(** [None] when the table is empty (the whole log is reclaimable). *)

val entry_with_min_redo_lsn : t -> entry option
(** The replacement victim the §2.5 space manager flushes first. *)

val entries : t -> entry list
val entries_owned_by : t -> int -> entry list
(** Entries whose page belongs to the given owner node — what a node
    sends a recovering owner in §2.3.1. *)

val size : t -> int
val clear : t -> unit

val snapshot : t -> Repro_wal.Record.dpt_entry list
(** Immutable copy logged in a fuzzy checkpoint. *)

val load_snapshot : t -> Repro_wal.Record.dpt_entry list -> unit
(** Restart analysis: repopulate from a checkpoint image. *)
