(** Log record contents.

    Matches §2.1/§2.2 of the paper: an update record carries the page id
    and {b the PSN the page had just before it was updated}
    ([psn_before]); redo applies a record iff the page's current PSN
    equals the record's [psn_before], making redo exact and making the
    PSN-ordered multi-node recovery of §2.3.4 deterministic.

    Two update operation flavours are supported, because the paper calls
    out (vs. PCA, §3.2) that the scheme handles {e both physical and
    logical} logging:
    - {!Physical}: byte-range before/after images;
    - {!Delta}: a logical increment of an 8-byte cell, undone by the
      negated delta.

    Compensation log records ({!Clr}) store the {e already inverted}
    operation plus the undo-next pointer, as in ARIES: redoing a CLR
    re-performs the undo and CLRs are never undone. *)

open Repro_storage

type update_op =
  | Physical of { off : int; before : string; after : string }
  | Delta of { off : int; delta : int64 }

val apply_op : Page.t -> update_op -> unit
(** Applies the operation's effect (after-image / +delta) to the page
    bytes.  Does {e not} touch the PSN — the caller bumps it. *)

val invert : update_op -> update_op
(** The operation whose application undoes the original. *)

(** {1 Checkpoint payloads} *)

type dpt_entry = {
  pid : Page_id.t;
  psn_first : int;  (** paper's [PSN]: page's PSN the first time it was dirtied *)
  curr_psn : int;  (** paper's [CurrPSN]: PSN after the page's latest local update *)
  redo_lsn : Lsn.t;  (** paper's [RedoLSN]: earliest local log record to redo *)
}

type active_txn = { txn : int; last_lsn : Lsn.t }

(** {1 Records} *)

type body =
  | Update of { pid : Page_id.t; psn_before : int; op : update_op }
  | Clr of { pid : Page_id.t; psn_before : int; op : update_op; undo_next : Lsn.t }
  | Commit
  | Abort  (** end of a completed rollback *)
  | Savepoint of string
  | Checkpoint_begin of { dpt : dpt_entry list; active : active_txn list }
  | Checkpoint_end

type t = {
  txn : int;  (** owning transaction; {!system_txn} for checkpoints *)
  prev : Lsn.t;  (** previous record of the same transaction (undo chain) *)
  body : body;
}

val system_txn : int
(** Pseudo transaction id used by checkpoint records. *)

val page_of : t -> Page_id.t option
(** The page an [Update]/[Clr] touches. *)

val psn_before_of : t -> int option

val pp : Format.formatter -> t -> unit

val encode : Repro_util.Codec.encoder -> t -> unit

val size : t -> int
(** Encoded size in bytes, without the log manager's frame header. *)

val decode : Repro_util.Codec.decoder -> t
(** Reads one record at the decoder's cursor, leaving it just past the
    record.
    @raise Repro_util.Codec.Corrupt on malformed input. *)
