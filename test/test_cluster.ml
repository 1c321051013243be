(* Multi-node normal processing: callback locking, page shipping,
   inter-transaction caching, the baseline schemes. *)

module Cluster = Repro_cbl.Cluster
module Node_state = Repro_cbl.Node_state
module Block = Repro_cbl.Block
module Metrics = Repro_sim.Metrics
module Config = Repro_sim.Config

let mk ?scheme ?retain_cached_locks ?(nodes = 4) () =
  let c = Cluster.create ?scheme ?retain_cached_locks ~pool_capacity:16 ~nodes Config.instant in
  let pages = Cluster.allocate_pages c ~owner:0 ~count:8 in
  (c, pages)

let test_remote_update_and_zero_commit_messages () =
  let c, pages = mk () in
  let p = List.hd pages in
  let t = Cluster.begin_txn c ~node:1 in
  Cluster.update_delta c ~txn:t ~pid:p ~off:0 9L;
  let before = (Cluster.node_metrics c 1).Metrics.messages_sent in
  Cluster.commit c ~txn:t;
  let m = Cluster.node_metrics c 1 in
  Alcotest.(check int) "no messages during commit" before m.Metrics.messages_sent;
  Alcotest.(check int) "no commit-path messages" 0 m.Metrics.commit_messages;
  Cluster.check_invariants c

let test_callback_x_takes_page_and_lock () =
  let c, pages = mk () in
  let p = List.hd pages in
  (* node 1 updates and commits: retains cached X and the dirty page *)
  let t1 = Cluster.begin_txn c ~node:1 in
  Cluster.update_delta c ~txn:t1 ~pid:p ~off:0 5L;
  Cluster.commit c ~txn:t1;
  (* node 2 updates the same page: X callback revokes node 1's lock *)
  let t2 = Cluster.begin_txn c ~node:2 in
  Cluster.update_delta c ~txn:t2 ~pid:p ~off:0 7L;
  Cluster.commit c ~txn:t2;
  let owner = Cluster.node c 0 in
  Alcotest.(check bool) "owner shows one X holder (node 2)" true
    (Repro_lock.Global_locks.x_holder owner.Node_state.glocks ~pid:p = Some 2);
  let n1 = Cluster.node c 1 in
  Alcotest.(check bool) "node 1 lost its cached lock" true
    (Repro_lock.Local_locks.cached_mode n1.Node_state.locks p = None);
  Alcotest.(check bool) "node 1 lost the page" false
    (Repro_buffer.Buffer_pool.contains n1.Node_state.pool p);
  (* the value is cumulative: node 2 saw node 1's update *)
  let t3 = Cluster.begin_txn c ~node:3 in
  Alcotest.(check int64) "cumulative" 12L (Cluster.read_cell c ~txn:t3 ~pid:p ~off:0);
  Cluster.commit c ~txn:t3;
  Cluster.check_invariants c

let test_callback_s_demotes () =
  let c, pages = mk () in
  let p = List.hd pages in
  let t1 = Cluster.begin_txn c ~node:1 in
  Cluster.update_delta c ~txn:t1 ~pid:p ~off:0 5L;
  Cluster.commit c ~txn:t1;
  (* a reader elsewhere demotes node 1's X to S; node 1 keeps the page *)
  let t2 = Cluster.begin_txn c ~node:2 in
  Alcotest.(check int64) "read sees update" 5L (Cluster.read_cell c ~txn:t2 ~pid:p ~off:0);
  Cluster.commit c ~txn:t2;
  let n1 = Cluster.node c 1 in
  Alcotest.(check bool) "node 1 demoted to S" true
    (Repro_lock.Local_locks.cached_mode n1.Node_state.locks p = Some Repro_lock.Mode.S);
  Alcotest.(check bool) "node 1 keeps the page" true
    (Repro_buffer.Buffer_pool.contains n1.Node_state.pool p);
  Cluster.check_invariants c

let test_callback_refused_while_txn_active () =
  let c, pages = mk () in
  let p = List.hd pages in
  let t1 = Cluster.begin_txn c ~node:1 in
  Cluster.update_delta c ~txn:t1 ~pid:p ~off:0 5L;
  (* t1 still active: node 2's update must block on it *)
  let t2 = Cluster.begin_txn c ~node:2 in
  (match Cluster.update_delta c ~txn:t2 ~pid:p ~off:0 7L with
  | () -> Alcotest.fail "expected a callback refusal"
  | exception Block.Would_block (Block.Lock_conflict { blockers }) ->
    Alcotest.(check (list int)) "blocked by the remote holder" [ t1 ] blockers
  | exception Block.Would_block _ -> Alcotest.fail "wrong reason");
  Cluster.commit c ~txn:t1;
  Cluster.update_delta c ~txn:t2 ~pid:p ~off:0 7L;
  Cluster.commit c ~txn:t2

let test_inter_transaction_caching_saves_messages () =
  let c, pages = mk () in
  let p = List.hd pages in
  let run () =
    let t = Cluster.begin_txn c ~node:1 in
    Cluster.update_delta c ~txn:t ~pid:p ~off:0 1L;
    Cluster.commit c ~txn:t
  in
  run ();
  let m = Cluster.node_metrics c 1 in
  let msgs_first = m.Metrics.messages_sent in
  let local_first = m.Metrics.lock_requests_local in
  run ();
  run ();
  Alcotest.(check int) "repeat txns send nothing" msgs_first m.Metrics.messages_sent;
  Alcotest.(check bool) "repeat txns hit the lock cache" true
    (m.Metrics.lock_requests_local >= local_first + 2)

let test_ablation_releases_locks_at_commit () =
  let c, pages = mk ~retain_cached_locks:false () in
  let p = List.hd pages in
  let t = Cluster.begin_txn c ~node:1 in
  Cluster.update_delta c ~txn:t ~pid:p ~off:0 1L;
  Cluster.commit c ~txn:t;
  let n1 = Cluster.node c 1 in
  Alcotest.(check bool) "lock given back" true
    (Repro_lock.Local_locks.cached_mode n1.Node_state.locks p = None);
  let owner = Cluster.node c 0 in
  Alcotest.(check bool) "owner table clean" true
    (Repro_lock.Global_locks.holders owner.Node_state.glocks ~pid:p = []);
  (* durability still holds *)
  let t2 = Cluster.begin_txn c ~node:2 in
  Alcotest.(check int64) "value" 1L (Cluster.read_cell c ~txn:t2 ~pid:p ~off:0);
  Cluster.commit c ~txn:t2

let test_ping_pong_without_disk_forces () =
  let c, pages = mk () in
  let p = List.hd pages in
  for _ = 1 to 5 do
    let t1 = Cluster.begin_txn c ~node:1 in
    Cluster.update_delta c ~txn:t1 ~pid:p ~off:0 1L;
    Cluster.commit c ~txn:t1;
    let t2 = Cluster.begin_txn c ~node:2 in
    Cluster.update_delta c ~txn:t2 ~pid:p ~off:0 1L;
    Cluster.commit c ~txn:t2
  done;
  let g = Cluster.global_metrics c in
  Alcotest.(check bool) "pages shipped" true (g.Metrics.pages_shipped >= 9);
  (* the only writes are the 8 allocation formats: transfers never force *)
  Alcotest.(check int) "never forced to disk at transfer" 8 g.Metrics.page_disk_writes

let test_server_logging_scheme_commit_path () =
  let c, pages = mk ~scheme:(Node_state.Server_logging { server = 0 }) () in
  let p = List.hd pages in
  let t = Cluster.begin_txn c ~node:1 in
  Cluster.update_delta c ~txn:t ~pid:p ~off:0 3L;
  Cluster.commit c ~txn:t;
  let m = Cluster.node_metrics c 1 in
  (* batch from the client, acknowledgement from the server *)
  Alcotest.(check int) "commit messages cluster-wide" 2
    (Cluster.global_metrics c).Metrics.commit_messages;
  Alcotest.(check bool) "records shipped" true (m.Metrics.log_records_shipped >= 1);
  (* server forced its log *)
  Alcotest.(check bool) "server forced" true
    ((Cluster.node_metrics c 0).Metrics.log_forces >= 1)

let test_pca_scheme_commit_path () =
  let c, pages = mk ~scheme:Node_state.Pca_double_logging () in
  let p = List.hd pages in
  let t = Cluster.begin_txn c ~node:1 in
  Cluster.update_delta c ~txn:t ~pid:p ~off:0 3L;
  Cluster.commit c ~txn:t;
  let m = Cluster.node_metrics c 1 in
  (* page + records to the PCA node *)
  Alcotest.(check int) "commit messages" 2 m.Metrics.commit_messages;
  Alcotest.(check int) "double logging" 1 m.Metrics.log_records_shipped;
  Alcotest.(check bool) "owner log grew" true
    ((Cluster.node_metrics c 0).Metrics.log_appends >= 1)

let test_global_log_scheme () =
  let c, pages = mk ~scheme:(Node_state.Global_log { log_node = 0 }) () in
  let p = List.hd pages in
  let t = Cluster.begin_txn c ~node:1 in
  Cluster.update_delta c ~txn:t ~pid:p ~off:0 3L;
  Cluster.commit c ~txn:t;
  let m = Cluster.node_metrics c 1 in
  (* every record travelled to the shared log *)
  Alcotest.(check int) "records shipped per append" 2 m.Metrics.log_records_shipped;
  (* Rdb-style: a page moving to the owner is forced to disk *)
  let t2 = Cluster.begin_txn c ~node:2 in
  Cluster.update_delta c ~txn:t2 ~pid:p ~off:0 1L;
  Cluster.commit c ~txn:t2;
  Alcotest.(check bool) "transfer forced to disk" true
    ((Cluster.node_metrics c 0).Metrics.page_disk_writes >= 2);
  let t3 = Cluster.begin_txn c ~node:3 in
  Alcotest.(check int64) "value" 4L (Cluster.read_cell c ~txn:t3 ~pid:p ~off:0);
  Cluster.commit c ~txn:t3

let test_baselines_reject_recovery () =
  let c, _ = mk ~scheme:Node_state.Pca_double_logging () in
  Cluster.crash c ~node:1;
  Alcotest.(check bool) "unsupported" true
    (try
       Cluster.recover c ~nodes:[ 1 ];
       false
     with Invalid_argument _ -> true)

let test_fairness_reservation_blocks_younger () =
  let c, pages = mk () in
  let p = List.hd pages in
  (* t_old wants X but is blocked by an active holder; its reservation
     then queues a younger requester behind it *)
  let t_holder = Cluster.begin_txn c ~node:1 in
  Cluster.update_delta c ~txn:t_holder ~pid:p ~off:0 1L;
  let t_old = Cluster.begin_txn c ~node:2 in
  (try Cluster.update_delta c ~txn:t_old ~pid:p ~off:0 1L with Block.Would_block _ -> ());
  let t_young = Cluster.begin_txn c ~node:3 in
  (match Cluster.read_cell c ~txn:t_young ~pid:p ~off:0 with
  | _ -> Alcotest.fail "younger must queue behind the reservation"
  | exception Block.Would_block (Block.Lock_conflict { blockers }) ->
    Alcotest.(check (list int)) "queued behind t_old" [ t_old ] blockers
  | exception Block.Would_block _ -> Alcotest.fail "wrong reason");
  Cluster.commit c ~txn:t_holder;
  Cluster.update_delta c ~txn:t_old ~pid:p ~off:0 1L;
  Cluster.commit c ~txn:t_old;
  ignore (Cluster.read_cell c ~txn:t_young ~pid:p ~off:0);
  Cluster.commit c ~txn:t_young

(* ---- group commit ---- *)

let mk_gc ~window_ms ~max_batch =
  let config = Config.with_group_commit Config.instant ~window_ms ~max_batch in
  let c = Cluster.create ~pool_capacity:16 ~nodes:1 config in
  let pages = Cluster.allocate_pages c ~owner:0 ~count:8 in
  (c, pages)

let test_group_commit_one_force_per_batch () =
  let c, pages = mk_gc ~window_ms:10. ~max_batch:4 in
  let txns =
    List.mapi
      (fun i p ->
        let t = Cluster.begin_txn c ~node:0 in
        Cluster.update_delta c ~txn:t ~pid:p ~off:0 (Int64.of_int (i + 1));
        t)
      (List.filteri (fun i _ -> i < 4) pages)
  in
  let before = (Cluster.node_metrics c 0).Metrics.log_forces in
  List.iteri
    (fun i t ->
      Cluster.commit c ~txn:t;
      if i < 3 then
        Alcotest.(check bool) "still pending before the batch fills" true
          (Cluster.commit_outcome c ~txn:t = `Pending))
    txns;
  let m = Cluster.node_metrics c 0 in
  Alcotest.(check int) "one force for the whole batch" (before + 1) m.Metrics.log_forces;
  Alcotest.(check int) "one batch" 1 m.Metrics.commit_batches;
  Alcotest.(check int) "four commits shared it" 4 m.Metrics.batched_commits;
  List.iter
    (fun t ->
      Alcotest.(check bool) "durable after the batch force" true
        (Cluster.commit_outcome c ~txn:t = `Durable))
    txns;
  Cluster.check_invariants c

let test_group_commit_window_flushes_partial_batch () =
  let c, pages = mk_gc ~window_ms:5. ~max_batch:8 in
  let p0 = List.nth pages 0 and p1 = List.nth pages 1 in
  let t0 = Cluster.begin_txn c ~node:0 in
  Cluster.update_delta c ~txn:t0 ~pid:p0 ~off:0 1L;
  let t1 = Cluster.begin_txn c ~node:0 in
  Cluster.update_delta c ~txn:t1 ~pid:p1 ~off:0 2L;
  Cluster.commit c ~txn:t0;
  Cluster.commit c ~txn:t1;
  Alcotest.(check bool) "pending before the window expires" true
    (Cluster.commit_outcome c ~txn:t0 = `Pending);
  (* idle pump: the clock jumps to the batch deadline and flushes *)
  Alcotest.(check bool) "pump makes progress" true (Cluster.pump_group_commit c ~idle:true);
  let m = Cluster.node_metrics c 0 in
  Alcotest.(check int) "partial batch forced once" 1 m.Metrics.commit_batches;
  Alcotest.(check int) "both commits rode it" 2 m.Metrics.batched_commits;
  Alcotest.(check bool) "t0 durable" true (Cluster.commit_outcome c ~txn:t0 = `Durable);
  Alcotest.(check bool) "t1 durable" true (Cluster.commit_outcome c ~txn:t1 = `Durable);
  Cluster.check_invariants c

let test_group_commit_crash_loses_whole_batch () =
  let c, pages = mk_gc ~window_ms:50. ~max_batch:8 in
  let p0 = List.nth pages 0 and p1 = List.nth pages 1 in
  (* seed a durable prefix so recovery has something to preserve *)
  let t = Cluster.begin_txn c ~node:0 in
  Cluster.update_delta c ~txn:t ~pid:p0 ~off:0 7L;
  Cluster.commit c ~txn:t;
  ignore (Cluster.pump_group_commit c ~idle:true);
  Alcotest.(check bool) "prefix durable" true (Cluster.commit_outcome c ~txn:t = `Durable);
  (* two commits submit into a batch that never gets forced *)
  let t0 = Cluster.begin_txn c ~node:0 in
  Cluster.update_delta c ~txn:t0 ~pid:p0 ~off:8 1L;
  let t1 = Cluster.begin_txn c ~node:0 in
  Cluster.update_delta c ~txn:t1 ~pid:p1 ~off:0 2L;
  Cluster.commit c ~txn:t0;
  Cluster.commit c ~txn:t1;
  Cluster.crash c ~node:0;
  Cluster.recover c ~nodes:[ 0 ];
  (* the WHOLE batch is lost — no prefix of it committed *)
  Alcotest.(check bool) "t0 gone" true (Cluster.commit_outcome c ~txn:t0 = `Gone);
  Alcotest.(check bool) "t1 gone" true (Cluster.commit_outcome c ~txn:t1 = `Gone);
  let r = Cluster.begin_txn c ~node:0 in
  Alcotest.(check int64) "durable prefix survives" 7L (Cluster.read_cell c ~txn:r ~pid:p0 ~off:0);
  Alcotest.(check int64) "batched update lost" 0L (Cluster.read_cell c ~txn:r ~pid:p0 ~off:8);
  Alcotest.(check int64) "batched update lost (2)" 0L (Cluster.read_cell c ~txn:r ~pid:p1 ~off:0);
  Cluster.commit c ~txn:r;
  ignore (Cluster.pump_group_commit c ~idle:true);
  Cluster.check_invariants c

let test_owner_no_room_forces_shipped_page () =
  (* Owner 0's two frames hold dirty pages of node 2, which then
     crashes: neither frame can be evicted (its owner cannot receive
     the ship).  Node 1 evicts a dirty page of owner 0 and ships it
     there.  The sender has already dropped its copy, so the owner,
     with no room to cache it, must force it to its own disk. *)
  let c = Cluster.create ~pool_capacity:2 ~nodes:3 Config.instant in
  let p = List.hd (Cluster.allocate_pages c ~owner:0 ~count:1) in
  let stuck = Cluster.allocate_pages c ~owner:2 ~count:2 in
  let local = Cluster.allocate_pages c ~owner:1 ~count:2 in
  let t = Cluster.begin_txn c ~node:0 in
  List.iter (fun pid -> Cluster.update_delta c ~txn:t ~pid ~off:0 1L) stuck;
  Cluster.commit c ~txn:t;
  Cluster.crash c ~node:2;
  let t = Cluster.begin_txn c ~node:1 in
  Cluster.update_delta c ~txn:t ~pid:p ~off:0 7L;
  Cluster.commit c ~txn:t;
  (* reading two more pages evicts [p], the least recently used *)
  let t = Cluster.begin_txn c ~node:1 in
  List.iter (fun pid -> ignore (Cluster.read_cell c ~txn:t ~pid ~off:0)) local;
  Cluster.commit c ~txn:t;
  let owner = Cluster.node c 0 in
  Alcotest.(check int) "the owner's pool is still full of the down node's pages" 2
    (List.length
       (List.filter
          (fun pid -> Option.is_some (Repro_buffer.Buffer_pool.peek owner.Node_state.pool pid))
          stuck));
  Alcotest.(check (option int)) "the shipped copy reached the owner's disk" (Some 1)
    (Repro_storage.Disk.psn_on_disk owner.Node_state.disk p);
  let t = Cluster.begin_txn c ~node:1 in
  Alcotest.(check int64) "the committed value reads back" 7L
    (Cluster.read_cell c ~txn:t ~pid:p ~off:0);
  Cluster.commit c ~txn:t

(* Node 0 evicts a dirty page [p] of owner 1 and ships it there.  The
   owner's two frames hold dirty pages of node 2, so receiving the copy
   makes owner 1 evict and ship in turn, and an injected page-ship crash
   fells owner 1 in the middle of node 0's ship.  The block reaches node
   0's eviction after [p] has left its pool: node 0's read must block
   (retry after the owner recovers), not carry on as if [p] had been
   parked; and [p]'s committed value must survive the owner's restart.
   The crash point draws for both ships, so the scenario runs under a
   few plan seeds and asserts that some of them take the path. *)
let owner_falls_mid_ship seed =
  let plan =
    {
      Repro_fault.Fault_plan.none with
      seed;
      crashpoints = Repro_fault.Fault_plan.crashpoints ~budget:1 [ (Page_ship, 0.5) ];
    }
  in
  let faults = Repro_fault.Injector.create plan in
  Repro_fault.Injector.set_armed faults false;
  let c = Cluster.create ~faults ~pool_capacity:2 ~nodes:3 Config.instant in
  let p = List.hd (Cluster.allocate_pages c ~owner:1 ~count:1) in
  let remote = Cluster.allocate_pages c ~owner:2 ~count:2 in
  let local = Cluster.allocate_pages c ~owner:0 ~count:2 in
  let t = Cluster.begin_txn c ~node:0 in
  Cluster.update_delta c ~txn:t ~pid:p ~off:0 7L;
  Cluster.commit c ~txn:t;
  let t = Cluster.begin_txn c ~node:1 in
  List.iter (fun pid -> Cluster.update_delta c ~txn:t ~pid ~off:0 1L) remote;
  Cluster.commit c ~txn:t;
  Repro_fault.Injector.set_armed faults true;
  (* reading two local pages evicts [p], the least recently used *)
  let t = Cluster.begin_txn c ~node:0 in
  let read =
    match List.iter (fun pid -> ignore (Cluster.read_cell c ~txn:t ~pid ~off:0)) local with
    | () -> None
    | exception Block.Would_block reason -> Some reason
  in
  Repro_fault.Injector.set_armed faults false;
  let up n = Repro_cbl.Node.is_up (Cluster.node c n) in
  if up 1 || not (up 0) then false
  else begin
    (match read with
    | Some (Block.Node_down { node = 1 }) -> ()
    | Some r ->
      Alcotest.failf "seed %d: blocked on %a, not on the fallen owner" seed Block.pp_reason r
    | None -> Alcotest.failf "seed %d: the read went on after its eviction's ship failed" seed);
    Cluster.abort c ~txn:t;
    Cluster.recover c ~nodes:[ 1 ];
    let t = Cluster.begin_txn c ~node:0 in
    Alcotest.(check int64) "the committed value survives the owner's restart" 7L
      (Cluster.read_cell c ~txn:t ~pid:p ~off:0);
    Cluster.commit c ~txn:t;
    Cluster.check_invariants c;
    true
  end

let test_owner_falls_mid_ship_blocks_the_evictor () =
  let driven = List.length (List.filter owner_falls_mid_ship (List.init 16 (fun i -> i + 1))) in
  Alcotest.(check bool) "some plan seed fells the owner mid-ship" true (driven > 0)

(* §2.3.3 on a 16-node cluster whose other nodes hold many unrelated
   S locks on each other's pages.  After node 5 crashes and recovers,
   every owner has dropped node 5's S locks and kept its X locks (which
   node 5 caches again), node 5's own lock table is rebuilt from exactly
   the locks its peers cache on its pages, and no unrelated lock moved. *)
let test_lock_reconstruction_on_a_busy_cluster () =
  let module Global_locks = Repro_lock.Global_locks in
  let module Local_locks = Repro_lock.Local_locks in
  let module Mode = Repro_lock.Mode in
  let nodes = 16 and crashed = 5 in
  let c = Cluster.create ~pool_capacity:64 ~nodes Config.instant in
  let pages =
    Array.init nodes (fun owner -> Array.of_list (Cluster.allocate_pages c ~owner ~count:8))
  in
  let run node f =
    let t = Cluster.begin_txn c ~node in
    f t;
    Cluster.commit c ~txn:t
  in
  let read t pid = ignore (Cluster.read_cell c ~txn:t ~pid ~off:0) in
  let others = List.filter (( <> ) crashed) (List.init nodes Fun.id) in
  (* unrelated: every other node reads slots 5..7 of every other owner *)
  List.iter
    (fun n ->
      run n (fun t ->
          List.iter (fun o -> if o <> n then for s = 5 to 7 do read t pages.(o).(s) done) others))
    others;
  let shared = [ 0; 1; 2; 3 ] and exclusive = [ 4; 6; 7 ] in
  run crashed (fun t ->
      List.iter (fun o -> read t pages.(o).(0)) shared;
      List.iter (fun o -> Cluster.update_delta c ~txn:t ~pid:pages.(o).(1) ~off:0 3L) exclusive);
  (* peers' cached locks on the crashed node's pages *)
  List.iter (fun n -> run n (fun t -> read t pages.(crashed).(n))) [ 0; 1; 2; 3 ];
  run 8 (fun t -> Cluster.update_delta c ~txn:t ~pid:pages.(crashed).(4) ~off:0 9L);
  let glocks n = (Cluster.node c n).Node_state.glocks in
  let locks n = (Cluster.node c n).Node_state.locks in
  let sorted l = List.sort (fun (a, _) (b, _) -> Repro_storage.Page_id.compare a b) l in
  let unrelated () =
    List.map
      (fun o ->
        List.map (fun n -> sorted (Global_locks.locks_held_by_node (glocks o) ~node:n)) others)
      others
  in
  let before = unrelated () in
  Cluster.crash c ~node:crashed;
  Cluster.recover c ~nodes:[ crashed ];
  List.iter
    (fun o ->
      Alcotest.(check bool) "the crashed node's S lock is released" true
        (Global_locks.holder_mode (glocks o) ~node:crashed ~pid:pages.(o).(0) = None))
    shared;
  List.iter
    (fun o ->
      let pid = pages.(o).(1) in
      Alcotest.(check bool) "the crashed node's X lock is kept" true
        (Global_locks.holder_mode (glocks o) ~node:crashed ~pid = Some Mode.X);
      Alcotest.(check bool) "and cached again at the crashed node" true
        (Local_locks.cached_mode (locks crashed) pid = Some Mode.X))
    exclusive;
  List.iter
    (fun m ->
      Alcotest.(check int) "the owner table holds what the peer caches"
        (List.length (Local_locks.cached_pages_owned_by (locks m) crashed))
        (List.length (Global_locks.locks_held_by_node (glocks crashed) ~node:m));
      List.iter
        (fun (pid, mode) ->
          Alcotest.(check bool) "rebuilt from the peer's cached lock" true
            (Global_locks.holder_mode (glocks crashed) ~node:m ~pid = Some mode))
        (Local_locks.cached_pages_owned_by (locks m) crashed))
    others;
  Alcotest.(check int) "the rebuilt table has the five peer locks" 5
    (List.length (Global_locks.pages (glocks crashed)));
  Alcotest.(check bool) "no unrelated lock moved" true (unrelated () = before);
  Cluster.check_invariants c

let suite =
  [
    ("remote update, zero commit messages", `Quick, test_remote_update_and_zero_commit_messages);
    ("X callback takes page and lock", `Quick, test_callback_x_takes_page_and_lock);
    ("S callback demotes", `Quick, test_callback_s_demotes);
    ("callback refused while txn active", `Quick, test_callback_refused_while_txn_active);
    ("inter-transaction caching saves messages", `Quick, test_inter_transaction_caching_saves_messages);
    ("ablation releases locks at commit", `Quick, test_ablation_releases_locks_at_commit);
    ("ping-pong without disk forces", `Quick, test_ping_pong_without_disk_forces);
    ("server-logging commit path", `Quick, test_server_logging_scheme_commit_path);
    ("pca commit path", `Quick, test_pca_scheme_commit_path);
    ("global-log scheme", `Quick, test_global_log_scheme);
    ("baselines reject recovery", `Quick, test_baselines_reject_recovery);
    ("fairness reservation blocks younger", `Quick, test_fairness_reservation_blocks_younger);
    ("group commit: one force per batch", `Quick, test_group_commit_one_force_per_batch);
    ("group commit: window flushes partial batch", `Quick,
     test_group_commit_window_flushes_partial_batch);
    ("group commit: crash loses the whole batch", `Quick,
     test_group_commit_crash_loses_whole_batch);
    ("owner with no room forces a shipped page", `Quick, test_owner_no_room_forces_shipped_page);
    ("owner falling mid-ship blocks the evictor", `Quick,
     test_owner_falls_mid_ship_blocks_the_evictor);
    ("lock reconstruction on a busy 16-node cluster", `Quick,
     test_lock_reconstruction_on_a_busy_cluster);
  ]
