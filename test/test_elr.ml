(* Early lock release (controlled lock violation): release-at-submit
   behaviour on a cluster, closure loss when a batch dies, the
   traced==untraced invariant with elr on, and node-local commit
   dependencies under fault-injected stress. *)

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
module Fault_plan = Repro_fault.Fault_plan
module Stress = Repro_workload.Stress

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

(* The (dependent, antecedent) pair of every traced [commit.dep]. *)
let dep_events c =
  List.filter_map
    (fun (e : Event.t) ->
      match (e.Event.kind, Event.attr_int e "txn", Event.attr_int e "on") with
      | Event.Commit_dep, Some dependent, Some antecedent -> Some (dependent, antecedent)
      | _ -> None)
    (Recorder.events (Repro_sim.Env.obs (Cluster.env c)))

(* The point of the whole feature: a committing transaction no longer
   blocks the next writer for the duration of the batch window. *)
let test_release_at_submit_unblocks_next_writer () =
  let c, pages = mk_elr ~trace:true ~window_ms:50. ~max_batch:8 () in
  let p = List.nth pages 0 and q = List.nth pages 1 in
  let t0 = Cluster.begin_txn c ~node:0 in
  Cluster.update_delta c ~txn:t0 ~pid:p ~off:0 5L;
  Cluster.update_delta c ~txn:t0 ~pid:q ~off:0 1L;
  Cluster.commit c ~txn:t0;
  Alcotest.(check bool) "t0 pending in its batch" true
    (Cluster.commit_outcome c ~txn:t0 = `Pending);
  (* with strict 2PL this acquire would block on t0's X until the
     batch forces; with elr it proceeds under a commit dependency *)
  let t1 = Cluster.begin_txn c ~node:0 in
  Cluster.update_delta c ~txn:t1 ~pid:p ~off:0 2L;
  Alcotest.(check (list (pair int int))) "t1 depends on t0" [ (t1, t0) ] (dep_events c);
  Alcotest.(check int) "one dependency registered" 1 (Cluster.dep_edges_registered c);
  (* a second page released by the same antecedent adds no edge *)
  Cluster.update_delta c ~txn:t1 ~pid:q ~off:0 1L;
  Alcotest.(check (list (pair int int))) "still one commit.dep" [ (t1, t0) ] (dep_events c);
  Alcotest.(check int) "still one dependency" 1 (Cluster.dep_edges_registered c);
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
  let c, pages = mk_elr ~trace:true ~window_ms:50. ~max_batch:8 () in
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
  Alcotest.(check (list (pair int int))) "t1 depends on t0" [ (t1, t0) ] (dep_events c);
  Cluster.commit c ~txn:t1;
  (* the batch never forces: both the antecedent and its dependent die *)
  Cluster.crash c ~node:0;
  Cluster.recover c ~nodes:[ 0 ];
  Alcotest.(check bool) "t0 gone" true (Cluster.commit_outcome c ~txn:t0 = `Gone);
  Alcotest.(check bool) "t1 gone (dragged)" true (Cluster.commit_outcome c ~txn:t1 = `Gone);
  Alcotest.(check int) "a crash keeps the edge count" 1 (Cluster.dep_edges_registered c);
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
  let cluster = Cluster.create ~trace ~nodes:2 config in
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

(* Dependencies never leave their node: under every fault class, with
   group commit and elr, each [commit.dep] joins two transactions that
   began on the node that recorded it.  The same sweep fires every event
   kind: a kind that no seed emits is a mechanism nothing exercises. *)
let test_deps_stay_on_their_node () =
  let classes = Fault_plan.all_classes in
  let deps = ref 0 in
  let fired = Hashtbl.create 64 in
  for seed = 0 to 49 do
    let cluster, _, _ = Stress.run ~trace:true ~classes ~group_commit:true ~elr:true seed in
    let events = Recorder.events (Repro_sim.Env.obs (Cluster.env cluster)) in
    let began = Hashtbl.create 256 in
    List.iter
      (fun (e : Event.t) ->
        Hashtbl.replace fired (Event.kind_name e.Event.kind) ();
        match (e.Event.kind, Event.attr_int e "txn") with
        | Event.Txn_begin, Some txn -> Hashtbl.replace began txn e.Event.node
        | _ -> ())
      events;
    List.iter
      (fun (e : Event.t) ->
        match (e.Event.kind, Event.attr_int e "txn", Event.attr_int e "on") with
        | Event.Commit_dep, Some dependent, Some antecedent ->
          incr deps;
          List.iter
            (fun (role, txn) ->
              if Hashtbl.find_opt began txn <> Some e.Event.node then
                Alcotest.failf "seed %d: %s T%d of a commit.dep at node %d began elsewhere: %s"
                  seed role txn e.Event.node (Event.render e))
            [ ("dependent", dependent); ("antecedent", antecedent) ]
        | _ -> ())
      events
  done;
  Alcotest.(check bool) "commit dependencies were recorded" true (!deps > 0);
  Alcotest.(check (list string))
    "every event kind fired"
    (List.sort String.compare (List.map Event.kind_name Event.all_kinds))
    (List.sort String.compare (Hashtbl.fold (fun k () acc -> k :: acc) fired []))

let suite =
  [
    ("elr: release at submit unblocks next writer", `Quick,
     test_release_at_submit_unblocks_next_writer);
    ("elr off: committing holder still blocks", `Quick, test_strict_2pl_still_blocks_without_elr);
    ("elr: lost batch drags dependents", `Quick, test_lost_batch_drags_dependents);
    ("elr: traced == untraced, audit clean", `Quick, test_elr_traced_equals_untraced);
    ("elr: dependencies stay on their node", `Quick, test_deps_stay_on_their_node);
  ]
