(* Crash-recovery scenarios for §2.3 (single crash), §2.4 (multiple)
   and the merged-log baseline. *)

module Cluster = Repro_cbl.Cluster
module Node = Repro_cbl.Node
module Recovery = Repro_cbl.Recovery
module Node_psn_list = Repro_cbl.Node_psn_list
module Node_state = Repro_cbl.Node_state
module Metrics = Repro_sim.Metrics
module Config = Repro_sim.Config
module Lsn = Repro_wal.Lsn

let mk ?(nodes = 4) ?(owners = [ 0 ]) () =
  let c = Cluster.create ~pool_capacity:16 ~nodes Config.instant in
  let pages = List.concat_map (fun o -> Cluster.allocate_pages c ~owner:o ~count:6) owners in
  (c, pages)

let read_all c ~node pages =
  let t = Cluster.begin_txn c ~node in
  let vs = List.map (fun p -> Cluster.read_cell c ~txn:t ~pid:p ~off:0) pages in
  Cluster.commit c ~txn:t;
  vs

let test_client_crash_redo_committed () =
  let c, pages = mk () in
  let p = List.hd pages in
  let t = Cluster.begin_txn c ~node:1 in
  Cluster.update_delta c ~txn:t ~pid:p ~off:0 11L;
  Cluster.commit c ~txn:t;
  (* the only up-to-date copy is in node 1's cache *)
  Cluster.crash c ~node:1;
  Cluster.recover c ~nodes:[ 1 ];
  Alcotest.(check (list int64)) "committed survives" [ 11L ] (read_all c ~node:2 [ p ]);
  Cluster.check_invariants c

let test_client_crash_undo_loser () =
  let c, pages = mk () in
  let p = List.hd pages in
  let t = Cluster.begin_txn c ~node:1 in
  Cluster.update_delta c ~txn:t ~pid:p ~off:0 11L;
  Cluster.commit c ~txn:t;
  let loser = Cluster.begin_txn c ~node:1 in
  Cluster.update_delta c ~txn:loser ~pid:p ~off:0 100L;
  Cluster.crash c ~node:1;
  Cluster.recover c ~nodes:[ 1 ];
  Alcotest.(check (list int64)) "loser rolled back" [ 11L ] (read_all c ~node:2 [ p ]);
  Cluster.check_invariants c

let test_unforced_tail_is_lost_but_consistent () =
  let c, pages = mk () in
  let p = List.hd pages in
  let t = Cluster.begin_txn c ~node:1 in
  Cluster.update_delta c ~txn:t ~pid:p ~off:0 5L;
  (* no commit: the records were never forced *)
  Cluster.crash c ~node:1;
  Cluster.recover c ~nodes:[ 1 ];
  Alcotest.(check (list int64)) "uncommitted gone" [ 0L ] (read_all c ~node:2 [ p ])

let test_owner_crash_pages_live_in_peer_caches () =
  let c, pages = mk () in
  let p = List.hd pages in
  let t = Cluster.begin_txn c ~node:3 in
  Cluster.update_delta c ~txn:t ~pid:p ~off:0 21L;
  Cluster.commit c ~txn:t;
  (* the owner crashes; node 3 still caches the latest copy *)
  Cluster.crash c ~node:0;
  Cluster.recover c ~nodes:[ 0 ];
  Alcotest.(check (list int64)) "fetched from peer cache" [ 21L ] (read_all c ~node:0 [ p ]);
  Cluster.check_invariants c

let test_owner_crash_needs_remote_redo () =
  let c, pages = mk () in
  let p = List.hd pages in
  (* node 1 updates, then is called back by node 2 so the dirty copy
     lands at the owner; then the owner crashes with it *)
  let t1 = Cluster.begin_txn c ~node:1 in
  Cluster.update_delta c ~txn:t1 ~pid:p ~off:0 7L;
  Cluster.commit c ~txn:t1;
  let t2 = Cluster.begin_txn c ~node:2 in
  Cluster.update_delta c ~txn:t2 ~pid:p ~off:0 9L;
  Cluster.commit c ~txn:t2;
  (* node 2's dirty copy is the latest; kill both it and the owner *)
  Cluster.crash c ~node:0;
  Cluster.crash c ~node:2;
  Cluster.recover c ~nodes:[ 0; 2 ];
  Alcotest.(check (list int64)) "both nodes' redo combined" [ 16L ] (read_all c ~node:1 [ p ]);
  Cluster.check_invariants c

let test_multi_crash_cross_partition () =
  let c, pages = mk ~owners:[ 0; 2 ] () in
  let by_owner o = List.filter (fun p -> Repro_storage.Page_id.owner p = o) pages in
  let p0 = List.hd (by_owner 0) and p2 = List.hd (by_owner 2) in
  let t1 = Cluster.begin_txn c ~node:1 in
  Cluster.update_delta c ~txn:t1 ~pid:p0 ~off:0 1L;
  Cluster.update_delta c ~txn:t1 ~pid:p2 ~off:0 2L;
  Cluster.commit c ~txn:t1;
  let loser = Cluster.begin_txn c ~node:3 in
  Cluster.update_delta c ~txn:loser ~pid:p0 ~off:0 50L;
  (* three nodes die at once, including both owners' client and one owner *)
  Cluster.crash c ~node:1;
  Cluster.crash c ~node:3;
  Cluster.crash c ~node:0;
  Cluster.recover c ~nodes:[ 0; 1; 3 ];
  Alcotest.(check (list int64)) "committed kept, loser gone" [ 1L; 2L ]
    (read_all c ~node:2 [ p0; p2 ]);
  Cluster.check_invariants c

let test_recovery_when_nothing_happened () =
  let c, pages = mk () in
  Cluster.crash c ~node:1;
  Cluster.recover c ~nodes:[ 1 ];
  Alcotest.(check (list int64)) "still zero" [ 0L ] (read_all c ~node:1 [ List.hd pages ])

let test_repeated_crash_cycles () =
  let c, pages = mk () in
  let p = List.hd pages in
  for i = 1 to 5 do
    let t = Cluster.begin_txn c ~node:1 in
    Cluster.update_delta c ~txn:t ~pid:p ~off:0 1L;
    Cluster.commit c ~txn:t;
    Cluster.crash c ~node:1;
    Cluster.recover c ~nodes:[ 1 ];
    Alcotest.(check (list int64)) "cumulative" [ Int64.of_int i ] (read_all c ~node:2 [ p ])
  done;
  Cluster.check_invariants c

let test_merged_strategy_same_state () =
  let run strategy =
    let c, pages = mk () in
    let p = List.hd pages in
    List.iter
      (fun node ->
        let t = Cluster.begin_txn c ~node in
        Cluster.update_delta c ~txn:t ~pid:p ~off:0 3L;
        Cluster.commit c ~txn:t)
      [ 1; 2; 3 ];
    Cluster.crash c ~node:3;
    Cluster.recover ~strategy c ~nodes:[ 3 ];
    List.hd (read_all c ~node:1 [ p ])
  in
  Alcotest.(check int64) "strategies agree" (run Recovery.Psn_coordinated)
    (run Recovery.Merged_logs)

let test_merged_strategy_ships_records () =
  let c, pages = mk () in
  let p = List.hd pages in
  (* node 2 commits work so its log has records the merge must ship *)
  let t2 = Cluster.begin_txn c ~node:2 in
  Cluster.update_delta c ~txn:t2 ~pid:(List.nth pages 1) ~off:0 4L;
  Cluster.commit c ~txn:t2;
  let t1 = Cluster.begin_txn c ~node:1 in
  Cluster.update_delta c ~txn:t1 ~pid:p ~off:0 5L;
  Cluster.commit c ~txn:t1;
  Cluster.crash c ~node:1;
  let before = Metrics.snapshot (Cluster.global_metrics c) in
  Cluster.recover ~strategy:Recovery.Merged_logs c ~nodes:[ 1 ];
  let d = Metrics.diff ~after:(Cluster.global_metrics c) ~before in
  Alcotest.(check bool) "peer records shipped" true (d.Metrics.log_records_shipped > 0)

let test_psn_strategy_ships_no_records () =
  let c, pages = mk () in
  let p = List.hd pages in
  let t1 = Cluster.begin_txn c ~node:1 in
  Cluster.update_delta c ~txn:t1 ~pid:p ~off:0 5L;
  Cluster.commit c ~txn:t1;
  Cluster.crash c ~node:1;
  let before = Metrics.snapshot (Cluster.global_metrics c) in
  Cluster.recover c ~nodes:[ 1 ];
  let d = Metrics.diff ~after:(Cluster.global_metrics c) ~before in
  Alcotest.(check int) "no records ever travel" 0 d.Metrics.log_records_shipped

let test_checkpoint_bounds_analysis () =
  let c, pages = mk () in
  let p = List.hd pages in
  for _ = 1 to 20 do
    let t = Cluster.begin_txn c ~node:1 in
    Cluster.update_delta c ~txn:t ~pid:p ~off:0 1L;
    Cluster.commit c ~txn:t
  done;
  (* make the updates durable at the owner so node 1's DPT entry
     retires: the remaining restart work is the analysis scan only *)
  let reader = Cluster.begin_txn c ~node:2 in
  ignore (Cluster.read_cell c ~txn:reader ~pid:p ~off:0);
  Cluster.commit c ~txn:reader;
  Node.owner_flush_page (Cluster.node c 0) p;
  Cluster.checkpoint c ~node:1;
  Cluster.crash c ~node:1;
  let before = Metrics.snapshot (Cluster.global_metrics c) in
  Cluster.recover c ~nodes:[ 1 ];
  let d = Metrics.diff ~after:(Cluster.global_metrics c) ~before in
  Alcotest.(check bool) "scan bounded by checkpoint" true
    (d.Metrics.recovery_log_records_scanned < 20);
  Alcotest.(check (list int64)) "state intact" [ 20L ] (read_all c ~node:2 [ p ])

let test_lock_reconstruction_shared_released_exclusive_kept () =
  let c, pages = mk () in
  let p = List.hd pages and q = List.nth pages 1 in
  (* node 1 ends up with cached X on p and cached S on q *)
  let t = Cluster.begin_txn c ~node:1 in
  Cluster.update_delta c ~txn:t ~pid:p ~off:0 1L;
  ignore (Cluster.read_cell c ~txn:t ~pid:q ~off:0);
  Cluster.commit c ~txn:t;
  Cluster.crash c ~node:1;
  Cluster.recover c ~nodes:[ 1 ];
  let owner = Cluster.node c 0 in
  Alcotest.(check bool) "X retained across the crash" true
    (Repro_lock.Global_locks.x_holder owner.Node_state.glocks ~pid:p = Some 1);
  Alcotest.(check bool) "S released" true
    (Repro_lock.Global_locks.holder_mode owner.Node_state.glocks ~node:1 ~pid:q = None);
  Cluster.check_invariants c

let test_recover_rejects_repeated_node () =
  let c, pages = mk () in
  let p = List.hd pages and q = List.nth pages 1 in
  let loser = Cluster.begin_txn c ~node:1 in
  Cluster.update_delta c ~txn:loser ~pid:p ~off:0 100L;
  (* a later commit on node 1 forces the loser's update to its log *)
  let t = Cluster.begin_txn c ~node:1 in
  Cluster.update_delta c ~txn:t ~pid:q ~off:0 1L;
  Cluster.commit c ~txn:t;
  Cluster.crash c ~node:1;
  (* recovering node 1 twice in one batch would roll its loser back twice *)
  Alcotest.check_raises "repeated node rejected"
    (Invalid_argument "Cluster.recover: node 1 listed more than once to recover") (fun () ->
      Cluster.recover c ~nodes:[ 1; 1 ]);
  Cluster.recover c ~nodes:[ 1 ];
  Alcotest.(check (list int64)) "loser rolled back once" [ 0L ] (read_all c ~node:2 [ p ]);
  Alcotest.(check int) "one abort" 1 (Cluster.node_metrics c 1).Metrics.txn_aborted;
  Cluster.check_invariants c

(* ---- NodePSNList unit behaviour ---- *)

let test_node_psn_list_merge_orders_and_collapses () =
  let open Node_psn_list in
  let a = [ { node = 1; psn = 0; lsn = 0 }; { node = 1; psn = 7; lsn = 700 } ] in
  let b = [ { node = 2; psn = 3; lsn = 30 } ] in
  let merged = merge [ a; b ] in
  Alcotest.(check (list int)) "psn order" [ 0; 3; 7 ] (List.map (fun r -> r.psn) merged);
  (* adjacent same-node runs collapse *)
  let c = [ { node = 1; psn = 0; lsn = 0 }; { node = 1; psn = 1; lsn = 10 } ] in
  let merged2 = merge [ c ] in
  Alcotest.(check int) "collapsed" 1 (List.length merged2);
  Alcotest.(check int) "anchored at earlier" 0 (List.hd merged2).psn

let test_node_psn_list_build_runs_per_transaction () =
  (* runs break exactly at transaction boundaries *)
  let env = Repro_sim.Env.create Config.instant in
  let log = Repro_wal.Log_manager.create env (Metrics.create ()) () in
  let pid = Repro_storage.Page_id.make ~owner:0 ~slot:0 in
  let append txn psn_before =
    ignore
      (Repro_wal.Log_manager.append log
         {
           Repro_wal.Record.txn;
           prev = Lsn.nil;
           body = Update { pid; psn_before; op = Delta { off = 0; delta = 1L } };
         })
  in
  append 1 0;
  append 1 1;
  append 2 2;
  append 1 3;
  let map =
    Node_psn_list.build log ~node:9 ~pages:(Repro_storage.Page_id.Set.singleton pid)
      ~start:Lsn.nil
  in
  let listing = Repro_storage.Page_id.Map.find pid map in
  Alcotest.(check (list int)) "three runs: T1, T2, T1"
    [ 0; 2; 3 ]
    (List.map (fun r -> r.Node_psn_list.psn) listing.Node_psn_list.runs);
  Alcotest.(check int) "all records remembered" 4 (List.length listing.Node_psn_list.records)

let suite =
  [
    ("client crash: committed redo", `Quick, test_client_crash_redo_committed);
    ("client crash: loser undo", `Quick, test_client_crash_undo_loser);
    ("unforced tail lost consistently", `Quick, test_unforced_tail_is_lost_but_consistent);
    ("owner crash: peer caches", `Quick, test_owner_crash_pages_live_in_peer_caches);
    ("owner crash: remote redo", `Quick, test_owner_crash_needs_remote_redo);
    ("multi-crash cross partition", `Quick, test_multi_crash_cross_partition);
    ("recovery of an idle node", `Quick, test_recovery_when_nothing_happened);
    ("repeated crash cycles", `Quick, test_repeated_crash_cycles);
    ("merged strategy: same state", `Quick, test_merged_strategy_same_state);
    ("merged strategy ships records", `Quick, test_merged_strategy_ships_records);
    ("psn strategy ships none", `Quick, test_psn_strategy_ships_no_records);
    ("checkpoint bounds analysis", `Quick, test_checkpoint_bounds_analysis);
    ("lock reconstruction 2.3.3", `Quick, test_lock_reconstruction_shared_released_exclusive_kept);
    ("recover rejects a repeated node", `Quick, test_recover_rejects_repeated_node);
    ("NodePSNList merge", `Quick, test_node_psn_list_merge_orders_and_collapses);
    ("NodePSNList runs per txn", `Quick, test_node_psn_list_build_runs_per_transaction);
  ]
