(** Fuzzy checkpointing (§2.2).

    A checkpoint logs the node's DPT and active-transaction table
    between a [Checkpoint_begin] / [Checkpoint_end] pair, forces the
    pair, and then updates the master record.  Nothing is quiesced and —
    the paper's advantage (4) — {e no other node is contacted}:
    checkpointing is entirely local. *)

val take :
  ?on_before_master:(unit -> unit) ->
  Repro_wal.Log_manager.t ->
  Repro_sim.Env.t ->
  Repro_sim.Metrics.t ->
  dpt:Repro_wal.Record.dpt_entry list ->
  active:Repro_wal.Record.active_txn list ->
  master:Master.t ->
  Repro_wal.Lsn.t
(** Returns the LSN of the begin record (the new master value).
    [on_before_master] runs after the checkpoint pair is forced but
    before the master record moves — the fault layer hangs its
    mid-checkpoint crash point there (a crash in that window must
    recover from the {e previous} master).  The checkpoint force runs
    the log's after-force hook ({!Repro_wal.Log_manager.set_after_force})
    {e before} [on_before_master] runs, so pending group commits the
    force covered are complete and cannot be lost to the crash point
    (force-to-device-end invariant). *)
