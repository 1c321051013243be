(** Restart analysis pass (ARIES, as used in §2.3.1 / §2.4).

    Scans the local log forward from the last complete checkpoint and
    reconstructs (a) a {e superset} of the DPT at crash time and (b) the
    loser transactions with their undo-chain heads.  The DPT is a
    superset because pages may have been flushed after their last logged
    update — harmless, since redo is PSN-guarded.

    The scan reads only record heads ({!Repro_wal.Log_manager.fold_heads})
    and keeps nothing recovery does not read: a loser's pages come from
    its undo chain, not from this pass.  It charges the recovery
    counters; its record count is the "log records scanned" column of
    experiments E4/E8. *)

type result = {
  dpt : Repro_wal.Record.dpt_entry list;
  losers : Repro_wal.Record.active_txn list;
      (** transactions with no commit/abort record; [last_lsn] is the
          head of each undo chain *)
}

val run : Repro_wal.Log_manager.t -> master:Master.t -> result
