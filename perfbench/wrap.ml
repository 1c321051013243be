module Engine = Repro_workload.Engine
module Env = Repro_sim.Env

let traced sp (e : Engine.t) =
  let op o f = Spans.span sp (Spans.Op o) f in
  {
    e with
    Engine.begin_txn = (fun ~node -> op Begin (fun () -> e.begin_txn ~node));
    read_cell = (fun ~txn ~pid ~off -> op Read (fun () -> e.read_cell ~txn ~pid ~off));
    update_delta = (fun ~txn ~pid ~off d -> op Update (fun () -> e.update_delta ~txn ~pid ~off d));
    update_bytes =
      (fun ~txn ~pid ~off s -> op Update_bytes (fun () -> e.update_bytes ~txn ~pid ~off s));
    savepoint = (fun ~txn name -> op Savepoint (fun () -> e.savepoint ~txn name));
    rollback_to = (fun ~txn name -> op Rollback_to (fun () -> e.rollback_to ~txn name));
    commit = (fun ~txn -> op Commit (fun () -> e.commit ~txn));
    commit_outcome = (fun ~txn -> op Outcome (fun () -> e.commit_outcome ~txn));
    pump_commits = (fun ~idle -> op Pump (fun () -> e.pump_commits ~idle));
    abort = (fun ~txn -> op Abort (fun () -> e.abort ~txn));
    checkpoint = (fun ~node -> op Checkpoint (fun () -> e.checkpoint ~node));
    crash = (fun ~node -> op Crash (fun () -> e.crash ~node));
    recover = (fun ~nodes -> op Recover (fun () -> e.recover ~nodes));
    is_up = (fun ~node -> op Is_up (fun () -> e.is_up ~node));
  }

type restart = { wall_s : float; sim_s : float }

let timing_recover report (e : Engine.t) =
  {
    e with
    Engine.recover =
      (fun ~nodes ->
        let sim0 = Env.now e.env in
        let t0 = Spans.now () in
        e.recover ~nodes;
        let wall_s = Spans.now () -. t0 in
        report { wall_s; sim_s = Env.now e.env -. sim0 });
  }
