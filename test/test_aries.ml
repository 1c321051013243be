(* Tests for the ARIES building blocks: master record, fuzzy checkpoints,
   analysis, PSN-exact redo, and the undo engine. *)

module Master = Repro_aries.Master
module Checkpoint = Repro_aries.Checkpoint
module Analysis = Repro_aries.Analysis
module Redo = Repro_aries.Redo
module Undo = Repro_aries.Undo
module Record = Repro_wal.Record
module Lsn = Repro_wal.Lsn
module Log_manager = Repro_wal.Log_manager
module Group_commit = Repro_wal.Group_commit
module Page = Repro_storage.Page
module Page_id = Repro_storage.Page_id
module Env = Repro_sim.Env
module Metrics = Repro_sim.Metrics
module Config = Repro_sim.Config
module Txn = Repro_tx.Txn
module Txn_table = Repro_tx.Txn_table

let pid slot = Page_id.make ~owner:0 ~slot

let mk () =
  let env = Env.create Config.instant in
  let metrics = Metrics.create () in
  (env, metrics, Log_manager.create env metrics ())

let update ~txn ~prev ~slot ~psn_before ~delta =
  {
    Record.txn;
    prev;
    body = Update { pid = pid slot; psn_before; op = Delta { off = 0; delta } };
  }

(* ---- Txn / Txn_table (small enough to test here) ---- *)

let test_txn_bookkeeping () =
  let t = Txn.make ~id:1 ~node:0 in
  Alcotest.(check bool) "active" true (Txn.is_active t);
  Txn.record_logged t 10;
  Txn.record_logged t 20;
  Alcotest.(check int) "last" 20 t.Txn.last_lsn;
  Alcotest.(check int) "first pinned" 10 t.Txn.first_lsn;
  Txn.add_savepoint t "a" 15;
  Txn.add_savepoint t "b" 25;
  Alcotest.(check (option int)) "sp" (Some 15) (Txn.savepoint_lsn t "a");
  Txn.release_savepoints_after t 20;
  Alcotest.(check (option int)) "b released" None (Txn.savepoint_lsn t "b");
  Alcotest.(check (option int)) "a kept" (Some 15) (Txn.savepoint_lsn t "a")

let test_txn_table () =
  let tbl = Txn_table.create () in
  let t1 = Txn.make ~id:1 ~node:0 in
  let t2 = Txn.make ~id:2 ~node:0 in
  Txn_table.register tbl t1;
  Txn_table.register tbl t2;
  t2.Txn.state <- Txn.Committed;
  Alcotest.(check int) "active count" 1 (List.length (Txn_table.active tbl));
  Alcotest.(check int) "snapshot" 1 (List.length (Txn_table.snapshot_active tbl));
  Txn_table.remove tbl 1;
  Alcotest.(check bool) "removed" true (Txn_table.find tbl 1 = None)

(* ---- Master + Checkpoint ---- *)

let test_checkpoint_updates_master () =
  let env, metrics, log = mk () in
  let master = Master.create () in
  Alcotest.(check bool) "initially nil" true (Lsn.is_nil (Master.get master));
  let begin_lsn = Checkpoint.take log env metrics ~dpt:[] ~active:[] ~master in
  Alcotest.(check int) "master points at begin" begin_lsn (Master.get master);
  Alcotest.(check int) "counted" 1 metrics.Metrics.checkpoints_taken;
  (* the pair is forced *)
  Alcotest.(check int) "durable" (Log_manager.end_lsn log) (Log_manager.durable_lsn log)

(* The mid-checkpoint crash point must not fire while a commit the
   checkpoint's force made durable is still marked pending: a retried
   but durable commit would be applied twice. *)
let test_checkpoint_completes_pending_commit () =
  let env = Env.create (Config.with_group_commit Config.instant ~window_ms:10. ~max_batch:8) in
  let metrics = Metrics.create () in
  let log = Log_manager.create env metrics () in
  let gc = Group_commit.create env ~node:0 log in
  let durable = ref [] in
  Group_commit.set_hooks gc ~before_force:ignore
    ~on_durable:(fun ~txn ~submitted_at:_ -> durable := txn :: !durable)
    ();
  let lsn = Log_manager.append log { Record.txn = 1; prev = Lsn.nil; body = Commit } in
  Group_commit.submit gc ~txn:1 ~lsn;
  let at_master = ref None in
  ignore
    (Checkpoint.take log env metrics ~dpt:[] ~active:[] ~master:(Master.create ())
       ~on_before_master:(fun () -> at_master := Some (!durable, Group_commit.pending_count gc)));
  Alcotest.(check (option (pair (list int) int)))
    "member completed, batch empty, before on_before_master" (Some ([ 1 ], 0)) !at_master

(* ---- Analysis ---- *)

let test_analysis_finds_losers_and_dpt () =
  let _env, _metrics, log = mk () in
  let master = Master.create () in
  (* T1 commits, T2 does not *)
  let l1 = Log_manager.append log (update ~txn:1 ~prev:Lsn.nil ~slot:0 ~psn_before:0 ~delta:5L) in
  let _ = Log_manager.append log { Record.txn = 1; prev = l1; body = Commit } in
  let l3 = Log_manager.append log (update ~txn:2 ~prev:Lsn.nil ~slot:1 ~psn_before:3 ~delta:7L) in
  let l4 = Log_manager.append log (update ~txn:2 ~prev:l3 ~slot:1 ~psn_before:4 ~delta:9L) in
  let r = Analysis.run log ~master in
  Alcotest.(check int) "one loser" 1 (List.length r.Analysis.losers);
  let loser = List.hd r.Analysis.losers in
  Alcotest.(check int) "loser is T2" 2 loser.Record.txn;
  Alcotest.(check int) "undo head" l4 loser.Record.last_lsn;
  Alcotest.(check int) "dpt superset has both pages" 2 (List.length r.Analysis.dpt);
  let e1 = List.find (fun (e : Record.dpt_entry) -> Page_id.equal e.pid (pid 1)) r.Analysis.dpt in
  Alcotest.(check int) "psn_first from first record" 3 e1.Record.psn_first;
  Alcotest.(check int) "curr tracks last" 5 e1.Record.curr_psn;
  Alcotest.(check int) "redo lsn" l3 e1.Record.redo_lsn;
  let e0 = List.find (fun (e : Record.dpt_entry) -> Page_id.equal e.pid (pid 0)) r.Analysis.dpt in
  Alcotest.(check (pair int int)) "a winner's page is listed too" (0, 1)
    (e0.Record.psn_first, e0.Record.curr_psn);
  Alcotest.(check int) "its redo lsn" l1 e0.Record.redo_lsn

let test_analysis_starts_at_checkpoint () =
  let env, metrics, log = mk () in
  let master = Master.create () in
  ignore (Log_manager.append log (update ~txn:1 ~prev:Lsn.nil ~slot:0 ~psn_before:0 ~delta:5L));
  ignore (Log_manager.append log { Record.txn = 1; prev = 0; body = Commit });
  let dpt_snapshot = [ { Record.pid = pid 9; psn_first = 1; curr_psn = 2; redo_lsn = 0 } ] in
  ignore (Checkpoint.take log env metrics ~dpt:dpt_snapshot ~active:[] ~master);
  let r = Analysis.run log ~master in
  (* the pre-checkpoint activity is invisible; the snapshot's entry is loaded *)
  Alcotest.(check int) "snapshot entry only" 1 (List.length r.Analysis.dpt);
  Alcotest.(check int) "it is page 9" 9 (List.hd r.Analysis.dpt).Record.pid.Page_id.slot;
  Alcotest.(check int) "no losers" 0 (List.length r.Analysis.losers)

let test_analysis_checkpoint_active_txns () =
  let env, metrics, log = mk () in
  let master = Master.create () in
  let l1 = Log_manager.append log (update ~txn:5 ~prev:Lsn.nil ~slot:0 ~psn_before:0 ~delta:1L) in
  ignore
    (Checkpoint.take log env metrics ~dpt:[]
       ~active:[ { Record.txn = 5; last_lsn = l1 } ]
       ~master);
  let r = Analysis.run log ~master in
  Alcotest.(check int) "carried loser" 1 (List.length r.Analysis.losers);
  Alcotest.(check int) "its head" l1 (List.hd r.Analysis.losers).Record.last_lsn

(* ---- Redo ---- *)

let test_redo_psn_exact () =
  let page = Page.create ~id:(pid 0) ~psn:5 ~size:32 in
  let op = Record.Delta { off = 0; delta = 10L } in
  Alcotest.(check bool) "not yet" true (Redo.apply page ~psn_before:7 ~op = Redo.Not_yet);
  Alcotest.(check bool) "already" true (Redo.apply page ~psn_before:3 ~op = Redo.Already_applied);
  Alcotest.(check int64) "untouched" 0L (Page.get_cell page ~off:0);
  Alcotest.(check bool) "applies" true (Redo.apply page ~psn_before:5 ~op = Redo.Applied);
  Alcotest.(check int) "psn advanced" 6 (Page.psn page);
  Alcotest.(check int64) "effect" 10L (Page.get_cell page ~off:0);
  Alcotest.(check bool) "idempotent" true (Redo.apply page ~psn_before:5 ~op = Redo.Already_applied)

(* Redo's read of a remembered location decodes only the op, after
   checking in place that the record is the expected page's update.  The
   check is not an [assert]: it raises in every build. *)
let test_read_op_checks_location () =
  let env = Env.create Config.default in
  let metrics = Metrics.create () in
  let log = Log_manager.create env metrics () in
  let op = Record.Delta { off = 8; delta = 3L } in
  let physical = Record.Physical { off = 0; before = "ab"; after = "cd" } in
  let l1 =
    Log_manager.append log
      { Record.txn = 1; prev = Lsn.nil; body = Update { pid = pid 1; psn_before = 4; op } }
  in
  let l2 =
    Log_manager.append log
      {
        Record.txn = 1;
        prev = l1;
        body = Clr { pid = pid 2; psn_before = 7; op = physical; undo_next = Lsn.nil };
      }
  in
  let l3 = Log_manager.append log { Record.txn = 1; prev = l2; body = Commit } in
  let advance f =
    let t0 = Env.now env in
    ignore (f ());
    Env.now env -. t0
  in
  let cost = Config.default.Config.cpu_per_log_record in
  Alcotest.(check bool) "reads cost time" true (cost > 0.);
  Alcotest.(check (float 1e-12)) "read's charge" cost (advance (fun () -> Log_manager.read log l1));
  Alcotest.(check (float 1e-12)) "read_op charges the same" cost
    (advance (fun () -> Log_manager.read_op log l1 ~pid:(pid 1) ~psn_before:4));
  Alcotest.(check bool) "an update's op" true
    (Log_manager.read_op log l1 ~pid:(pid 1) ~psn_before:4 = op);
  Alcotest.(check bool) "a CLR's op" true
    (Log_manager.read_op log l2 ~pid:(pid 2) ~psn_before:7 = physical);
  Alcotest.(check int) "no scan counted" 0 metrics.Metrics.recovery_log_records_scanned;
  let rejects what lsn ~pid ~psn_before =
    match Log_manager.read_op log lsn ~pid ~psn_before with
    | _ -> Alcotest.failf "read_op accepted %s" what
    | exception Invalid_argument _ -> ()
  in
  rejects "another page's update" l1 ~pid:(pid 2) ~psn_before:4;
  rejects "another owner's page" l1 ~pid:(Page_id.make ~owner:1 ~slot:1) ~psn_before:4;
  rejects "a different psn_before" l1 ~pid:(pid 1) ~psn_before:5;
  rejects "a CLR of another page" l2 ~pid:(pid 1) ~psn_before:7;
  rejects "a commit" l3 ~pid:(pid 1) ~psn_before:4

(* ---- Undo ---- *)

(* A miniature node: records in a log, a page store, and CLR-writing
   undo callbacks — exactly what the engine expects. *)
let test_undo_total_and_partial () =
  let _, _, log = mk () in
  let page = Page.create ~id:(pid 0) ~psn:0 ~size:32 in
  let txn = Txn.make ~id:1 ~node:0 in
  let do_update delta =
    let psn_before = Page.psn page in
    let lsn =
      Log_manager.append log
        {
          Record.txn = 1;
          prev = txn.Txn.last_lsn;
          body = Update { pid = pid 0; psn_before; op = Delta { off = 0; delta } };
        }
    in
    Txn.record_logged txn lsn;
    Page.add_cell page ~off:0 delta;
    Page.bump_psn page
  in
  let ops =
    {
      Undo.read_record = Log_manager.read log;
      perform_undo =
        (fun ~txn:txn_id ~pid:_ ~op ~undo_next ->
          let psn_before = Page.psn page in
          let lsn =
            Log_manager.append log
              {
                Record.txn = txn_id;
                prev = txn.Txn.last_lsn;
                body = Clr { pid = pid 0; psn_before; op; undo_next };
              }
          in
          Txn.record_logged txn lsn;
          Record.apply_op page op;
          Page.bump_psn page;
          lsn);
    }
  in
  do_update 10L;
  let sp =
    Log_manager.append log { Record.txn = 1; prev = txn.Txn.last_lsn; body = Savepoint "sp" }
  in
  Txn.record_logged txn sp;
  do_update 20L;
  do_update 30L;
  Alcotest.(check int64) "before rollback" 60L (Page.get_cell page ~off:0);
  (* partial rollback to the savepoint undoes 20 and 30 *)
  let last = Undo.rollback ops ~txn:1 ~from:txn.Txn.last_lsn ~upto:sp in
  Alcotest.(check int64) "partial" 10L (Page.get_cell page ~off:0);
  Alcotest.(check bool) "returned last CLR" true (last = txn.Txn.last_lsn);
  (* a later total rollback walks over the CLRs without undoing them *)
  do_update 40L;
  let _ = Undo.rollback ops ~txn:1 ~from:txn.Txn.last_lsn ~upto:Lsn.nil in
  Alcotest.(check int64) "total" 0L (Page.get_cell page ~off:0)

let test_undo_rejects_foreign_chain () =
  let _, _, log = mk () in
  let l = Log_manager.append log (update ~txn:2 ~prev:Lsn.nil ~slot:0 ~psn_before:0 ~delta:1L) in
  let ops =
    { Undo.read_record = Log_manager.read log; perform_undo = (fun ~txn:_ ~pid:_ ~op:_ ~undo_next:_ -> 0) }
  in
  Alcotest.(check bool) "wrong txn rejected" true
    (try
       ignore (Undo.rollback ops ~txn:1 ~from:l ~upto:Lsn.nil);
       false
     with Invalid_argument _ -> true)

let suite =
  [
    ("txn bookkeeping", `Quick, test_txn_bookkeeping);
    ("txn table", `Quick, test_txn_table);
    ("checkpoint updates master", `Quick, test_checkpoint_updates_master);
    ("checkpoint completes a pending commit before the master moves", `Quick,
      test_checkpoint_completes_pending_commit);
    ("analysis finds losers and dpt", `Quick, test_analysis_finds_losers_and_dpt);
    ("analysis starts at checkpoint", `Quick, test_analysis_starts_at_checkpoint);
    ("analysis carries checkpoint actives", `Quick, test_analysis_checkpoint_active_txns);
    ("redo is PSN-exact", `Quick, test_redo_psn_exact);
    ("redo read checks the remembered location", `Quick, test_read_op_checks_location);
    ("undo total and partial", `Quick, test_undo_total_and_partial);
    ("undo rejects foreign chain", `Quick, test_undo_rejects_foreign_chain);
  ]
