(* Recovery under fire: crashes at the five recovery crash points,
   partitions across the recovery exchanges, and deferred-page parking
   when a required peer stays down.  The scenarios mirror E12's shape
   (every node increments every page, the owner last, so its crash
   leaves no live cached copy and real multi-node redo must run) and
   assert convergence against a fault-free control run of the same
   workload. *)

module Fault_plan = Repro_fault.Fault_plan
module Injector = Repro_fault.Injector
module Config = Repro_sim.Config
module Metrics = Repro_sim.Metrics
module Page_id = Repro_storage.Page_id
module Cluster = Repro_cbl.Cluster
module Node_state = Repro_cbl.Node_state
module Block = Repro_cbl.Block
module Engine = Repro_workload.Engine
module Driver = Repro_workload.Driver
module Stress = Repro_workload.Stress

let recovery_points ?(budget = 0) p =
  Fault_plan.crashpoints ~budget
    (List.filter_map
       (fun pt -> if Fault_plan.in_restart pt then Some (pt, p) else None)
       Fault_plan.points)

(* Every node increments every page once, owner 0 committing last: after
   crashing 0 (and optionally 2) the current copies live nowhere and the
   owner must rebuild them from the peers' NodePSNList claims. *)
let seed_workload cluster pages =
  let engine = Engine.of_cluster cluster in
  List.iter
    (fun node ->
      let txn = engine.Engine.begin_txn ~node in
      List.iter (fun pid -> engine.Engine.update_delta ~txn ~pid ~off:0 1L) pages;
      engine.Engine.commit ~txn)
    [ 1; 2; 3; 0 ]

let read_all cluster pages ~node =
  let engine = Engine.of_cluster cluster in
  let txn = engine.Engine.begin_txn ~node in
  let vs = List.map (fun pid -> engine.Engine.read_cell ~txn ~pid ~off:0) pages in
  engine.Engine.commit ~txn;
  vs

(* Run the E12-shaped scenario under [plan]; crash nodes 0 and 2, then
   recover until converged and return the final cell values. *)
let run_crash_scenario plan =
  let faults = Injector.create plan in
  let cluster = Cluster.create ~seed:29 ~faults ~nodes:4 (Config.with_page_size Config.default 512) in
  let pages = Cluster.allocate_pages cluster ~owner:0 ~count:6 in
  seed_workload cluster pages;
  Cluster.crash cluster ~node:0;
  Cluster.crash cluster ~node:2;
  Cluster.recover_until_up cluster;
  let vs = read_all cluster pages ~node:3 in
  Cluster.check_invariants cluster;
  (cluster, vs)

let test_double_crash_during_recovery () =
  (* A crash budget of 2 with hot recovery crash points: the first
     recovery attempt dies mid-protocol, the re-entered attempt can die
     again, and the third must converge to exactly the state a
     fault-free recovery reaches. *)
  let control = snd (run_crash_scenario Fault_plan.none) in
  let plan =
    { Fault_plan.none with Fault_plan.seed = 903; crashpoints = recovery_points ~budget:2 0.3 }
  in
  let cluster, faulted = run_crash_scenario plan in
  let g = Cluster.global_metrics cluster in
  Alcotest.(check bool) "crashes were injected mid-recovery" true (g.Metrics.injected_crashes >= 1);
  Alcotest.(check bool) "aborted attempts were re-entered" true (g.Metrics.recovery_restarts >= 1);
  Alcotest.(check (list int64)) "converged to the fault-free state" control faulted

let test_redo_retry_bit_identical () =
  (* Partitions and drops armed only for the recovery window: the
     NodePSNList exchanges must retry their way through (bounded
     backoff), and the recovered state must be bit-identical to a
     fault-free recovery of the same workload.  A zero crash budget
     keeps the injector live through recovery without ever felling a
     node, isolating the message-fault path. *)
  let control = snd (run_crash_scenario Fault_plan.none) in
  let plan =
    {
      Fault_plan.none with
      Fault_plan.seed = 907;
      net =
        {
          Fault_plan.drop = 0.3;
          max_drops = 8;
          dup = 0.2;
          delay = 0.;
          max_delay = 0.;
          rto = 0.01;
          (* partitions shorter than the exchange retry budget: every
             exchange backs off through them, none aborts the attempt *)
          partition = 0.15;
          max_partition = 5;
        };
      (* a non-zero recovery probability keeps the injector live during
         recovery (DESIGN.md §13); budget 0 means no crash ever fires *)
      crashpoints = recovery_points ~budget:0 0.5;
    }
  in
  let faults = Injector.create plan in
  (* the workload itself runs fault-free: only recovery sees the faults *)
  Injector.set_armed faults false;
  let cluster = Cluster.create ~seed:29 ~faults ~nodes:4 (Config.with_page_size Config.default 512) in
  let pages = Cluster.allocate_pages cluster ~owner:0 ~count:6 in
  seed_workload cluster pages;
  Cluster.crash cluster ~node:0;
  Cluster.crash cluster ~node:2;
  Injector.set_armed faults true;
  Cluster.recover_until_up cluster;
  Injector.set_armed faults false;
  let g = Cluster.global_metrics cluster in
  Alcotest.(check int) "no crashes injected (budget 0)" 0 g.Metrics.injected_crashes;
  Alcotest.(check bool) "message faults actually hit recovery" true
    (g.Metrics.recovery_retries > 0 || g.Metrics.net_msgs_dropped > 0);
  let faulted = read_all cluster pages ~node:3 in
  Cluster.check_invariants cluster;
  Alcotest.(check (list int64)) "bit-identical to the fault-free recovery" control faulted

let test_deferred_pages_complete_on_peer_restart () =
  (* No injector: the defer path alone.  Node 2's committed increments
     sit between node 1's and node 0's in every page's PSN order, so
     recovering node 0 without node 2 meets a redo gap on every page and
     must park it (blocker = 2) rather than fail.  Parked pages answer
     with the retryable [Page_unavailable]; recovering node 2 completes
     them and the full values surface. *)
  let cluster = Cluster.create ~seed:31 ~nodes:4 (Config.with_page_size Config.default 512) in
  let pages = Cluster.allocate_pages cluster ~owner:0 ~count:4 in
  seed_workload cluster pages;
  Cluster.crash cluster ~node:0;
  Cluster.crash cluster ~node:2;
  let before = Metrics.snapshot (Cluster.global_metrics cluster) in
  Cluster.recover cluster ~defer:[ 2 ] ~nodes:[ 0 ];
  let owner = Cluster.node cluster 0 in
  let parked = Page_id.Tbl.length owner.Node_state.deferred_pages in
  Alcotest.(check int) "every page parked on the deferred peer" (List.length pages) parked;
  let d = Metrics.diff ~after:(Cluster.global_metrics cluster) ~before in
  Alcotest.(check int) "parked metric counts them" (List.length pages)
    d.Metrics.recovery_deferred_pages;
  (* access to a parked page surfaces the retryable block, naming the
     node whose recovery will clear it *)
  let engine = Engine.of_cluster cluster in
  let txn = engine.Engine.begin_txn ~node:1 in
  (match engine.Engine.read_cell ~txn ~pid:(List.hd pages) ~off:0 with
  | _ -> Alcotest.fail "expected Page_unavailable on a parked page"
  | exception Block.Would_block (Block.Page_unavailable { blocker; _ }) ->
    Alcotest.(check int) "blocked on the deferred peer" 2 blocker);
  Cluster.abort cluster ~txn;
  (* the deferred peer returns: its recovery completes the parked pages *)
  Cluster.recover cluster ~nodes:[ 2 ];
  Alcotest.(check int) "parked set drained" 0 (Page_id.Tbl.length owner.Node_state.deferred_pages);
  let d = Metrics.diff ~after:(Cluster.global_metrics cluster) ~before in
  Alcotest.(check int) "completions counted" (List.length pages)
    d.Metrics.recovery_deferred_completed;
  Alcotest.(check (list int64)) "every increment surfaced"
    (List.map (fun _ -> 4L) pages)
    (read_all cluster pages ~node:1);
  Cluster.check_invariants cluster

let test_recover_until_up_defer () =
  (* E12's shape under hot recovery crash points: with node 2 deferred,
     re-entry brings up every other down node and leaves 2 down (its
     pages' redo parks on it); a second call with nothing deferred
     brings 2 up and completes the parked pages. *)
  let plan =
    { Fault_plan.none with Fault_plan.seed = 903; crashpoints = recovery_points ~budget:2 0.3 }
  in
  let cluster =
    Cluster.create ~seed:29 ~faults:(Injector.create plan) ~nodes:4
      (Config.with_page_size Config.default 512)
  in
  let pages = Cluster.allocate_pages cluster ~owner:0 ~count:6 in
  seed_workload cluster pages;
  Cluster.crash cluster ~node:0;
  Cluster.crash cluster ~node:2;
  let up () = List.init 4 (fun n -> Repro_cbl.Node.is_up (Cluster.node cluster n)) in
  Cluster.recover_until_up ~defer:[ 2 ] cluster;
  Alcotest.(check (list bool)) "all up but the deferred node" [ true; true; false; true ] (up ());
  Cluster.recover_until_up cluster;
  Alcotest.(check (list bool)) "all up" [ true; true; true; true ] (up ());
  Alcotest.(check (list int64)) "every increment surfaced"
    (List.map (fun _ -> 4L) pages)
    (read_all cluster pages ~node:3);
  Cluster.check_invariants cluster

(* ---- Regression seeds ---- *)

(* Full randomized stress runs under the recovery fault class, exactly
   as [cblsim stress --faults recovery] draws them: random topology and
   workload, scripted crashes, auto-recovery — with the injector live
   through recovery, so the driver's re-entry path (a Recover event
   aborted by a nested crash is rescheduled, not dropped) is what
   converges the run. *)
let stress_iteration seed =
  let classes = { Fault_plan.no_classes with Fault_plan.recovery = true } in
  let cluster, outcome, _ = Stress.run ~classes ~group_commit:false ~elr:false seed in
  let g = Cluster.global_metrics cluster in
  Alcotest.(check bool)
    (Printf.sprintf "seed %d: mid-recovery crashes were injected" seed)
    true
    (g.Metrics.injected_crashes >= 2 && g.Metrics.recovery_restarts >= 2);
  Alcotest.(check int) (Printf.sprintf "seed %d: no stuck scripts" seed) 0 outcome.Driver.stuck;
  match Driver.verify outcome with
  | Ok () -> ()
  | Error es -> Alcotest.fail (Printf.sprintf "seed %d: %s" seed (String.concat "; " es))

(* The five lowest seeds in 0-60 whose run injects at least two crashes
   and restarts recovery at least twice, so every run exercises the
   abort/re-enter path for real rather than vacuously passing with a
   quiet schedule. *)
let test_regression_seeds () = List.iter stress_iteration [ 1; 3; 4; 6; 7 ]

let suite =
  [
    ("double crash during recovery converges", `Quick, test_double_crash_during_recovery);
    ("redo retries are bit-identical to fault-free", `Quick, test_redo_retry_bit_identical);
    ( "deferred pages complete on peer restart",
      `Quick,
      test_deferred_pages_complete_on_peer_restart );
    ("recover_until_up defers, then converges", `Quick, test_recover_until_up_defer);
    ("regression seeds (recovery fault class)", `Slow, test_regression_seeds);
  ]
