module Record = Repro_wal.Record
module Log_manager = Repro_wal.Log_manager
module Lsn = Repro_wal.Lsn

let take ?(on_before_master = fun () -> ()) log env metrics ~dpt ~active ~master =
  let module Env = Repro_sim.Env in
  let module Event = Repro_obs.Event in
  let node = metrics.Repro_sim.Metrics.node in
  if Env.tracing env then
    Env.emit env ~node Event.Ckpt_begin
      [ ("dpt", Event.Int (List.length dpt)); ("active", Event.Int (List.length active)) ];
  let begin_lsn =
    Log_manager.append log
      { Record.txn = Record.system_txn; prev = Lsn.nil; body = Checkpoint_begin { dpt; active } }
  in
  let end_lsn =
    Log_manager.append log
      { Record.txn = Record.system_txn; prev = begin_lsn; body = Checkpoint_end }
  in
  (* The force runs the log's after-force hook, which completes any
     pending group-commit records it made durable — before
     [on_before_master]'s crash point can fire while durable commits
     are still marked pending (a retried-but-durable commit would
     double-apply). *)
  Log_manager.force log ~upto:end_lsn;
  on_before_master ();
  Master.set master begin_lsn;
  metrics.Repro_sim.Metrics.checkpoints_taken <- metrics.Repro_sim.Metrics.checkpoints_taken + 1;
  if Repro_sim.Env.tracing env then
    Repro_sim.Env.emit env ~node
      Repro_obs.Event.Ckpt_end
      [ ("lsn", Repro_obs.Event.Int begin_lsn) ];
  begin_lsn
