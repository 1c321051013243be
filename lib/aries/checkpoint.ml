module Record = Repro_wal.Record
module Log_manager = Repro_wal.Log_manager
module Group_commit = Repro_wal.Group_commit
module Lsn = Repro_wal.Lsn

let take ?(on_before_master = fun () -> ()) ?gc log env metrics ~dpt ~active ~master =
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
  Log_manager.force log ~upto:end_lsn;
  (* Force-to-device-end invariant: this force just made any pending
     group-commit records durable.  Sweep them before [on_before_master]
     — its crash point must not fire while durable commits are still
     marked pending (a retried-but-durable commit would double-apply). *)
  Option.iter Group_commit.on_force gc;
  on_before_master ();
  Master.set master begin_lsn;
  metrics.Repro_sim.Metrics.checkpoints_taken <- metrics.Repro_sim.Metrics.checkpoints_taken + 1;
  if Repro_sim.Env.tracing env then
    Repro_sim.Env.emit env ~node
      Repro_obs.Event.Ckpt_end
      [ ("lsn", Repro_obs.Event.Int begin_lsn) ];
  begin_lsn
