(* Early lock release (controlled lock violation): the commit-dependency
   graph, release-at-submit behaviour on a cluster, closure loss when a
   batch dies, and the traced==untraced invariant with elr on. *)

module Dep_graph = Repro_tx.Dep_graph
module Cluster = Repro_cbl.Cluster
module Config = Repro_sim.Config
module Metrics = Repro_sim.Metrics
module Block = Repro_cbl.Block
module Engine = Repro_workload.Engine
module Driver = Repro_workload.Driver
module Generators = Repro_workload.Generators
module Rng = Repro_util.Rng
module Event = Repro_obs.Event
module Recorder = Repro_obs.Recorder
module Audit = Repro_obs.Audit

let sorted = List.sort compare

(* ---- dependency graph units ---- *)

let test_dep_chain () =
  let g = Dep_graph.create () in
  (* B observed A's pre-durable state, C observed B's *)
  Alcotest.(check bool) "B->A fresh" true (Dep_graph.add g ~dependent:2 ~antecedent:1);
  Alcotest.(check bool) "C->B fresh" true (Dep_graph.add g ~dependent:3 ~antecedent:2);
  Alcotest.(check (list int)) "B blocked on A" [ 1 ] (Dep_graph.durable_blocked g 2);
  Alcotest.(check (list int)) "C blocked on B" [ 2 ] (Dep_graph.durable_blocked g 3);
  Alcotest.(check (list int)) "A unconstrained" [] (Dep_graph.durable_blocked g 1);
  (* A forces: B frees; C still waits on B; then B forces *)
  Dep_graph.settle_durable g 1;
  Alcotest.(check (list int)) "B freed" [] (Dep_graph.durable_blocked g 2);
  Alcotest.(check (list int)) "C still blocked" [ 2 ] (Dep_graph.durable_blocked g 3);
  Dep_graph.settle_durable g 2;
  Alcotest.(check (list int)) "C freed" [] (Dep_graph.durable_blocked g 3);
  Alcotest.(check int) "no live edges" 0 (Dep_graph.edge_count g);
  Alcotest.(check int) "two edges ever registered" 2 (Dep_graph.registered_count g)

let test_dep_dedup_and_self () =
  let g = Dep_graph.create () in
  Alcotest.(check bool) "first is fresh" true (Dep_graph.add g ~dependent:2 ~antecedent:1);
  Alcotest.(check bool) "repeat is not" false (Dep_graph.add g ~dependent:2 ~antecedent:1);
  Alcotest.(check bool) "self-edge ignored" false (Dep_graph.add g ~dependent:1 ~antecedent:1);
  Alcotest.(check int) "one live edge" 1 (Dep_graph.edge_count g);
  Alcotest.(check int) "one registered" 1 (Dep_graph.registered_count g)

let test_dep_diamond_loss_closure () =
  let g = Dep_graph.create () in
  (* diamond: B and C depend on A; D depends on both B and C *)
  ignore (Dep_graph.add g ~dependent:2 ~antecedent:1);
  ignore (Dep_graph.add g ~dependent:3 ~antecedent:1);
  ignore (Dep_graph.add g ~dependent:4 ~antecedent:2);
  ignore (Dep_graph.add g ~dependent:4 ~antecedent:3);
  (* losing A dooms everything downstream, each member once *)
  let closure = Dep_graph.settle_lost g [ 1 ] in
  Alcotest.(check (list int)) "whole diamond dragged" [ 2; 3; 4 ] (sorted closure);
  Alcotest.(check int) "graph scrubbed" 0 (Dep_graph.edge_count g);
  (* a disjoint chain is untouched by an unrelated loss *)
  ignore (Dep_graph.add g ~dependent:11 ~antecedent:10);
  Alcotest.(check (list int)) "unrelated loss drags nothing" [] (Dep_graph.settle_lost g [ 99 ]);
  Alcotest.(check (list int)) "chain intact" [ 10 ] (Dep_graph.durable_blocked g 11)

(* ---- cluster behaviour ---- *)

let mk_elr ?(early_release = true) ?(trace = false) ~window_ms ~max_batch () =
  let config =
    Config.with_early_release
      (Config.with_group_commit Config.instant ~window_ms ~max_batch)
      early_release
  in
  let c = Cluster.create ~trace ~nodes:1 ~pool_capacity:16 config in
  let pages = Cluster.allocate_pages c ~owner:0 ~count:8 in
  (c, pages)

(* The point of the whole feature: a committing transaction no longer
   blocks the next writer for the duration of the batch window. *)
let test_release_at_submit_unblocks_next_writer () =
  let c, pages = mk_elr ~window_ms:50. ~max_batch:8 () in
  let p = List.hd pages in
  let t0 = Cluster.begin_txn c ~node:0 in
  Cluster.update_delta c ~txn:t0 ~pid:p ~off:0 5L;
  Cluster.commit c ~txn:t0;
  Alcotest.(check bool) "t0 pending in its batch" true
    (Cluster.commit_outcome c ~txn:t0 = `Pending);
  (* with strict 2PL this acquire would block on t0's X until the
     batch forces; with elr it proceeds under a commit dependency *)
  let t1 = Cluster.begin_txn c ~node:0 in
  Cluster.update_delta c ~txn:t1 ~pid:p ~off:0 2L;
  Alcotest.(check (list int)) "t1 depends on t0" [ t0 ] (Cluster.commit_antecedents c ~txn:t1);
  Alcotest.(check int) "one dependency registered" 1 (Cluster.dep_edges_registered c);
  Cluster.commit c ~txn:t1;
  ignore (Cluster.pump_group_commit c ~idle:true);
  Alcotest.(check bool) "t0 durable" true (Cluster.commit_outcome c ~txn:t0 = `Durable);
  Alcotest.(check bool) "t1 durable" true (Cluster.commit_outcome c ~txn:t1 = `Durable);
  let r = Cluster.begin_txn c ~node:0 in
  Alcotest.(check int64) "both updates applied" 7L (Cluster.read_cell c ~txn:r ~pid:p ~off:0);
  Cluster.commit c ~txn:r;
  ignore (Cluster.pump_group_commit c ~idle:true);
  Cluster.check_invariants c

let test_strict_2pl_still_blocks_without_elr () =
  let c, pages = mk_elr ~early_release:false ~window_ms:50. ~max_batch:8 () in
  let p = List.hd pages in
  let t0 = Cluster.begin_txn c ~node:0 in
  Cluster.update_delta c ~txn:t0 ~pid:p ~off:0 5L;
  Cluster.commit c ~txn:t0;
  let t1 = Cluster.begin_txn c ~node:0 in
  (match Cluster.update_delta c ~txn:t1 ~pid:p ~off:0 2L with
  | () -> Alcotest.fail "expected the committing holder to block the acquire"
  | exception Block.Would_block _ -> ());
  Alcotest.(check int) "no dependency recorded" 0 (Cluster.dep_edges_registered c);
  ignore (Cluster.pump_group_commit c ~idle:true);
  Cluster.abort c ~txn:t1;
  Cluster.check_invariants c

(* PR 3's whole-batch-loss invariant generalised: a dependent that rode
   the doomed batch is dragged down with its antecedent. *)
let test_lost_batch_drags_dependents () =
  let c, pages = mk_elr ~window_ms:50. ~max_batch:8 () in
  let p0 = List.nth pages 0 and p1 = List.nth pages 1 in
  (* a durable prefix recovery must preserve *)
  let t = Cluster.begin_txn c ~node:0 in
  Cluster.update_delta c ~txn:t ~pid:p0 ~off:0 7L;
  Cluster.commit c ~txn:t;
  ignore (Cluster.pump_group_commit c ~idle:true);
  Alcotest.(check bool) "prefix durable" true (Cluster.commit_outcome c ~txn:t = `Durable);
  (* t0 submits; t1 observes t0's early-released page, then submits too *)
  let t0 = Cluster.begin_txn c ~node:0 in
  Cluster.update_delta c ~txn:t0 ~pid:p0 ~off:8 1L;
  Cluster.commit c ~txn:t0;
  let t1 = Cluster.begin_txn c ~node:0 in
  Cluster.update_delta c ~txn:t1 ~pid:p0 ~off:8 1L;
  Cluster.update_delta c ~txn:t1 ~pid:p1 ~off:0 2L;
  Alcotest.(check (list int)) "t1 depends on t0" [ t0 ] (Cluster.commit_antecedents c ~txn:t1);
  Cluster.commit c ~txn:t1;
  (* the batch never forces: both the antecedent and its dependent die *)
  Cluster.crash c ~node:0;
  Cluster.recover c ~nodes:[ 0 ];
  Alcotest.(check bool) "t0 gone" true (Cluster.commit_outcome c ~txn:t0 = `Gone);
  Alcotest.(check bool) "t1 gone (dragged)" true (Cluster.commit_outcome c ~txn:t1 = `Gone);
  Alcotest.(check int) "graph drained" 0 (Cluster.dep_edge_count c);
  let r = Cluster.begin_txn c ~node:0 in
  Alcotest.(check int64) "durable prefix survives" 7L (Cluster.read_cell c ~txn:r ~pid:p0 ~off:0);
  Alcotest.(check int64) "antecedent's update lost" 0L (Cluster.read_cell c ~txn:r ~pid:p0 ~off:8);
  Alcotest.(check int64) "dependent's update lost" 0L (Cluster.read_cell c ~txn:r ~pid:p1 ~off:0);
  Cluster.commit c ~txn:r;
  ignore (Cluster.pump_group_commit c ~idle:true);
  Cluster.check_invariants c

(* ---- a contended elr workload: deterministic, traced == untraced ---- *)

let elr_workload ~trace () =
  let config =
    Config.with_early_release
      (Config.with_group_commit Config.default ~window_ms:10. ~max_batch:4)
      true
  in
  let cluster = Cluster.create ~trace ~trace_capacity:(1 lsl 18) ~nodes:2 config in
  let pages = Cluster.allocate_pages cluster ~owner:0 ~count:8 in
  let engine = Engine.of_cluster cluster in
  let rng = Rng.create 7 in
  let scripts =
    Generators.hotspot rng ~pages ~clients:[ 0; 0; 0; 1 ] ~txns_per_client:8
      ~mix:
        {
          Generators.default_mix with
          update_fraction = 0.6;
          ops_per_txn = 3;
          remote_fraction = 0.;
          theta = 0.6;
        }
  in
  let outcome = Driver.run engine ~mpl:4 scripts in
  Alcotest.(check int) "no stuck scripts" 0 outcome.Driver.stuck;
  (match Driver.verify outcome with
  | Ok () -> ()
  | Error errs -> Alcotest.failf "durability oracle: %s" (String.concat "; " errs));
  (cluster, outcome)

let test_elr_traced_equals_untraced () =
  let traced, ot = elr_workload ~trace:true () in
  let untraced, ou = elr_workload ~trace:false () in
  Alcotest.(check (list (pair string int)))
    "identical counters"
    (Metrics.to_alist (Cluster.global_metrics untraced))
    (Metrics.to_alist (Cluster.global_metrics traced));
  Alcotest.(check bool) "identical simulated time" true
    (Float.equal (Cluster.now untraced) (Cluster.now traced));
  Alcotest.(check int) "identical commits" ou.Driver.committed ot.Driver.committed;
  (* the traced run recorded the new story, and the auditor accepts the
     weakened discipline *)
  let events = Recorder.events (Repro_sim.Env.obs (Cluster.env traced)) in
  let has k = List.exists (fun e -> e.Event.kind = k) events in
  Alcotest.(check bool) "early releases captured" true (has Event.Lock_early_release);
  Alcotest.(check bool) "dependencies captured" true (has Event.Commit_dep);
  let report = Audit.run events in
  if not (Audit.ok report) then
    Alcotest.failf "audit rejected the elr trace: %s" (Format.asprintf "%a" Audit.pp report)

let suite =
  [
    ("dep graph: chain settles in order", `Quick, test_dep_chain);
    ("dep graph: dedup and self-edges", `Quick, test_dep_dedup_and_self);
    ("dep graph: loss drags the diamond", `Quick, test_dep_diamond_loss_closure);
    ("elr: release at submit unblocks next writer", `Quick,
     test_release_at_submit_unblocks_next_writer);
    ("elr off: committing holder still blocks", `Quick, test_strict_2pl_still_blocks_without_elr);
    ("elr: lost batch drags dependents", `Quick, test_lost_batch_drags_dependents);
    ("elr: traced == untraced, audit clean", `Quick, test_elr_traced_equals_untraced);
  ]
