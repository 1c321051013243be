(* Recovery under fire: crashes at the five recovery crash points and
   partitions across the recovery exchanges, and every down node
   recovering in one batch.  The scenarios mirror E12's shape
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
module Event = Repro_obs.Event
module Recorder = Repro_obs.Recorder

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
  let cluster = Cluster.create ~faults ~nodes:4 (Config.with_page_size Config.default 512) in
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
  let cluster = Cluster.create ~faults ~nodes:4 (Config.with_page_size Config.default 512) in
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

let test_loser_on_co_recovered_peer () =
  (* §2.4: node 1's loser updated a page owned by node 2, and both
     crash.  Recovering node 1 alone is refused — node 2's log and base
     would be missing from the batch — so both recover together, and
     node 1's undo fetches the page from the co-recovered owner. *)
  let cluster = Cluster.create ~nodes:3 Config.instant in
  let remote = List.hd (Cluster.allocate_pages cluster ~owner:2 ~count:1) in
  let own = List.hd (Cluster.allocate_pages cluster ~owner:1 ~count:1) in
  let t = Cluster.begin_txn cluster ~node:1 in
  Cluster.update_delta cluster ~txn:t ~pid:remote ~off:0 5L;
  Cluster.commit cluster ~txn:t;
  let loser = Cluster.begin_txn cluster ~node:1 in
  Cluster.update_delta cluster ~txn:loser ~pid:remote ~off:0 100L;
  (* a later commit forces the loser's update record to the log *)
  let t = Cluster.begin_txn cluster ~node:1 in
  Cluster.update_delta cluster ~txn:t ~pid:own ~off:0 1L;
  Cluster.commit cluster ~txn:t;
  Cluster.crash cluster ~node:1;
  Cluster.crash cluster ~node:2;
  Alcotest.check_raises "a down node left out is rejected"
    (Invalid_argument "Cluster.recover: node(s) 2 are down; recover all down nodes together")
    (fun () -> Cluster.recover cluster ~nodes:[ 1 ]);
  Cluster.recover cluster ~nodes:[ 1; 2 ];
  let node1 = Cluster.node cluster 1 in
  Alcotest.(check bool) "the loser is rolled back" true
    (Option.is_none (Repro_tx.Txn_table.find node1.Node_state.txns loser));
  Alcotest.(check int) "one abort" 1 (Cluster.node_metrics cluster 1).Metrics.txn_aborted;
  Alcotest.(check (list int64)) "committed state intact" [ 5L; 1L ]
    (read_all cluster [ remote; own ] ~node:0);
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
    ("loser on a co-recovered peer's page", `Quick, test_loser_on_co_recovered_peer);
    ("regression seeds (recovery fault class)", `Slow, test_regression_seeds);
  ]
