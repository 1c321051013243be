(* Tests for the observability layer: typed events, the event ring and
   its truncation marker, log-bucketed histograms, JSON codec, and the
   traced==untraced metrics invariant. *)

module Json = Repro_obs.Json
module Event = Repro_obs.Event
module Recorder = Repro_obs.Recorder
module Log_hist = Repro_obs.Log_hist
module Stats = Repro_util.Stats
module Metrics = Repro_sim.Metrics
module Config = Repro_sim.Config
module Cluster = Repro_cbl.Cluster
module Engine = Repro_workload.Engine
module Driver = Repro_workload.Driver
module Generators = Repro_workload.Generators
module Rng = Repro_util.Rng
module Experiments = Repro_experiments.Experiments

let feq = Alcotest.(check (float 1e-9))

(* ---- the event ring ---- *)

let test_ring_buffer_keeps_newest () =
  let r = Recorder.create ~enabled:true ~capacity:4 () in
  for i = 1 to 10 do
    Recorder.emit r ~time:(float_of_int i) ~node:0 Event.Log_append [ ("bytes", Event.Int i) ]
  done;
  Alcotest.(check int) "dropped oldest" 6 (Recorder.dropped r);
  let times = List.map (fun e -> int_of_float e.Event.time) (Recorder.events r) in
  (* the last entry is the trace.dropped summary, stamped at the newest time *)
  Alcotest.(check (list int)) "newest survive, oldest-first" [ 7; 8; 9; 10; 10 ] times

let test_recorder_enabled_late_records () =
  let r = Recorder.create ~capacity:4 () in
  Recorder.emit r ~time:0. ~node:0 Event.Crash [];
  Alcotest.(check int) "nothing while disabled" 0 (List.length (Recorder.events r));
  Recorder.set_enabled r true;
  for i = 1 to 6 do
    Recorder.emit r ~time:(float_of_int i) ~node:0 Event.Log_append [ ("bytes", Event.Int i) ]
  done;
  let times = List.map (fun e -> int_of_float e.Event.time) (Recorder.events r) in
  Alcotest.(check (list int)) "records once enabled, oldest first, then the summary"
    [ 3; 4; 5; 6; 6 ] times;
  Alcotest.(check int) "dropped" 2 (Recorder.dropped r)

let test_disabled_recorder_is_inert () =
  let r = Recorder.create () in
  Recorder.emit r ~time:1.0 ~node:0 Event.Crash [];
  Alcotest.(check int) "no events" 0 (List.length (Recorder.events r))

module Critical_path = Repro_obs.Critical_path
module Audit = Repro_obs.Audit

(* An overflowed ring ends with a [trace.dropped] summary, and every
   reader of [Recorder.events] sees it: the critical-path analysis
   reports truncation and the auditor skips its prefix checks instead
   of judging a suffix as if it were the whole run. *)
let test_overflow_reaches_every_reader () =
  let r = Recorder.create ~enabled:true ~capacity:4 () in
  Recorder.emit r ~time:1. ~node:0 Event.Txn_begin [ ("txn", Event.Int 3) ];
  for i = 2 to 7 do
    Recorder.emit r ~time:(float_of_int i) ~node:0 Event.Log_append [ ("bytes", Event.Int i) ]
  done;
  Recorder.emit r ~time:8. ~node:0 Event.Txn_commit [ ("txn", Event.Int 3) ];
  Alcotest.(check int) "dropped" 4 (Recorder.dropped r);
  let events = Recorder.events r in
  (match List.rev events with
  | last :: _ ->
    Alcotest.(check string) "ends with the summary" "trace.dropped"
      (Event.kind_name last.Event.kind);
    Alcotest.(check (option int)) "summary count" (Some 4) (Event.attr_int last "count")
  | [] -> Alcotest.fail "no events");
  Alcotest.(check bool) "critical path: truncated" true
    (Critical_path.analyze events).Critical_path.truncated;
  let report = Audit.run events in
  Alcotest.(check bool) "audit: truncated" true report.Audit.truncated;
  Alcotest.(check (list string))
    "audit: prefix checks skipped"
    [
      "force-before-ship"; "batch-loss-closure"; "release-after-terminal"; "release-after-submit";
      "closure-loss";
    ]
    report.Audit.skipped;
  (* the JSONL export carries the same summary line *)
  let lines = String.split_on_char '\n' (String.trim (Recorder.to_jsonl r)) in
  Alcotest.(check int) "exported lines" (List.length events) (List.length lines)

(* ---- histograms ---- *)

let test_histogram_percentiles_match_stats () =
  (* a deterministic long-tailed sample: commit latencies in seconds *)
  let rng = Rng.create 99 in
  let samples =
    Array.init 5000 (fun _ ->
        let base = 0.002 +. Rng.float rng 0.01 in
        if Rng.chance rng 0.05 then base *. 30. else base)
  in
  let h = Log_hist.create () in
  Array.iter (Log_hist.record h) samples;
  let s = Stats.summarize samples in
  let close name expect got =
    let rel = abs_float (got -. expect) /. expect in
    if rel > 0.15 then
      Alcotest.failf "%s: histogram %g vs exact %g (rel err %.3f)" name got expect rel
  in
  Alcotest.(check int) "count" (Array.length samples) (Log_hist.count h);
  feq "min is exact" s.Stats.min (Log_hist.min_value h);
  feq "max is exact" s.Stats.max (Log_hist.max_value h);
  close "mean" s.Stats.mean (Log_hist.mean h);
  close "p50" s.Stats.p50 (Log_hist.p50 h);
  close "p95" s.Stats.p95 (Log_hist.p95 h);
  close "p99" s.Stats.p99 (Log_hist.p99 h)

let test_histogram_edge_cases () =
  let h = Log_hist.create () in
  feq "empty quantile" 0. (Log_hist.p50 h);
  Log_hist.record h 3.0;
  feq "single sample p50" 3.0 (Log_hist.p50 h);
  feq "single sample p99" 3.0 (Log_hist.p99 h);
  Log_hist.record h 0.;
  Alcotest.(check int) "zero lands in underflow" 2 (Log_hist.count h);
  feq "min tracks zero" 0. (Log_hist.min_value h)

let test_observe_aggregates_cluster () =
  let r = Recorder.create () in
  Recorder.observe r ~name:"commit_latency" ~node:0 1.0;
  Recorder.observe r ~name:"commit_latency" ~node:1 2.0;
  (match Recorder.find_hist r ~name:"commit_latency" ~node:(-1) with
  | Some h -> Alcotest.(check int) "cluster aggregate has both" 2 (Log_hist.count h)
  | None -> Alcotest.fail "cluster aggregate missing");
  match Recorder.find_hist r ~name:"commit_latency" ~node:1 with
  | Some h -> Alcotest.(check int) "per-node kept apart" 1 (Log_hist.count h)
  | None -> Alcotest.fail "per-node histogram missing"

(* ---- JSON ---- *)

let test_json_round_trip () =
  let v =
    Json.Obj
      [
        ("s", Json.Str "he said \"hi\"\n\ttab");
        ("i", Json.Int (-42));
        ("f", Json.Float 0.1250931);
        ("t", Json.Bool true);
        ("n", Json.Null);
        ("l", Json.List [ Json.Int 1; Json.Float 2.5; Json.Str "x" ]);
        ("o", Json.Obj [ ("nested", Json.List []) ]);
      ]
  in
  Alcotest.(check bool) "round trip" true (Json.of_string (Json.to_string v) = v);
  Alcotest.(check bool)
    "pretty round trip" true
    (Json.of_string (Json.to_string_pretty v) = v);
  (match Json.of_string "{\"a\": [1, 2.5e-3, \"\\u0041\"]}" with
  | Json.Obj [ ("a", Json.List [ Json.Int 1; Json.Float f; Json.Str "A" ]) ] ->
    feq "exponent" 0.0025 f
  | _ -> Alcotest.fail "parse shape");
  List.iter
    (fun bad -> match Json.of_string bad with
      | exception Json.Parse_error _ -> ()
      | _ -> Alcotest.failf "accepted invalid JSON %S" bad)
    [ "{"; "[1,]"; "tru"; "\"unterminated"; "1 2" ]

let test_metrics_json_round_trip () =
  let m = Metrics.create ~node:3 () in
  m.Metrics.messages_sent <- 17;
  m.Metrics.log_appends <- 5;
  m.Metrics.txn_committed <- 2;
  m.Metrics.busy_seconds <- 1.625;
  let j = Json.of_string (Json.to_string (Metrics.to_json m)) in
  let int_field k = Option.bind (Json.member k j) Json.to_int_opt in
  Alcotest.(check (option int)) "node survives" (Some 3) (int_field "node");
  (match Option.bind (Json.member "busy_seconds" j) Json.to_float_opt with
  | Some b -> feq "float survives" m.Metrics.busy_seconds b
  | None -> Alcotest.fail "busy_seconds missing");
  List.iter
    (fun (k, v) -> Alcotest.(check (option int)) (k ^ " survives") (Some v) (int_field k))
    (Metrics.to_alist m)

let test_event_json_and_kind_names () =
  List.iter
    (fun k ->
      match Event.kind_of_name (Event.kind_name k) with
      | Some k' when k' = k -> ()
      | _ -> Alcotest.failf "kind name round trip failed for %s" (Event.kind_name k))
    Event.all_kinds;
  let e =
    Event.make ~time:1.25 ~node:2 ~txn:7 Event.Page_ship
      [ ("dst", Event.Int 0); ("page", Event.Str "P0.3") ]
  in
  let j = Event.to_json e in
  let str_field k = Option.bind (Json.member k j) Json.to_string_opt in
  let int_field k = Option.bind (Json.member k j) Json.to_int_opt in
  Alcotest.(check (option string)) "kind" (Some "page.ship") (str_field "kind");
  Alcotest.(check (option int)) "node" (Some 2) (int_field "node");
  Alcotest.(check (option int)) "context" (Some 7) (int_field "ctx");
  Alcotest.(check (option string)) "attr" (Some "P0.3") (str_field "page");
  Alcotest.(check bool) "json round trip" true (Event.of_json j = Some e)

(* ---- the invariant: tracing must not change the simulation ---- *)

let run_workload ?faults ~trace () =
  let cluster = Cluster.create ~trace ?faults ~nodes:3 Config.default in
  let p0 = Cluster.allocate_pages cluster ~owner:0 ~count:12 in
  let p2 = Cluster.allocate_pages cluster ~owner:2 ~count:12 in
  let engine = Engine.of_cluster cluster in
  let rng = Rng.create 5 in
  let scripts =
    Generators.partitioned rng
      ~pages_by_owner:[ (0, p0); (2, p2) ]
      ~clients:[ 0; 1; 2 ] ~txns_per_client:8
      ~mix:{ Generators.default_mix with remote_fraction = 0.4 }
  in
  let events = [ (12, Driver.Crash 1); (30, Driver.Recover [ 1 ]) ] in
  let outcome = Driver.run engine ~events scripts in
  (cluster, outcome)

(* Bit-identity of an untraced and a traced run: the driver outcome,
   every node's counters and busy time, and the simulated clock. *)
let check_same_run (untraced, (ou : Driver.outcome)) (traced, (ot : Driver.outcome)) =
  let outcome (o : Driver.outcome) =
    ( (o.committed, o.voluntary_aborts, o.deadlock_aborts, o.stuck, o.rounds, o.sched_events),
      (o.sim_seconds, o.latencies, o.shadow) )
  in
  Alcotest.(check bool) "identical driver outcome" true (outcome ou = outcome ot);
  for node = 0 to Cluster.node_count untraced - 1 do
    let mu = Cluster.node_metrics untraced node and mt = Cluster.node_metrics traced node in
    Alcotest.(check (list (pair string int)))
      (Printf.sprintf "node %d: identical counters" node)
      (Metrics.to_alist mu) (Metrics.to_alist mt);
    Alcotest.(check (float 0.))
      (Printf.sprintf "node %d: identical busy seconds" node)
      mu.Metrics.busy_seconds mt.Metrics.busy_seconds
  done;
  Alcotest.(check (float 0.)) "identical simulated time" (Cluster.now untraced)
    (Cluster.now traced)

let test_traced_equals_untraced () =
  let traced, ot = run_workload ~trace:true () in
  let untraced, ou = run_workload ~trace:false () in
  check_same_run (untraced, ou) (traced, ot);
  (* and the traced run actually recorded the story *)
  let obs = Repro_sim.Env.obs (Cluster.env traced) in
  let has k = List.exists (fun e -> e.Event.kind = k) (Recorder.events obs) in
  List.iter
    (fun k ->
      Alcotest.(check bool) (Event.kind_name k ^ " captured") true (has k))
    [ Event.Txn_begin; Event.Txn_commit; Event.Msg_send; Event.Log_force; Event.Crash;
      Event.Recovery_begin; Event.Recovery_phase; Event.Recovery_end ];
  Alcotest.(check bool)
    "untraced recorded nothing" true
    (Recorder.events (Repro_sim.Env.obs (Cluster.env untraced)) = [])

(* E11's best group-commit point (max batch 8, 20 ms window, full
   sweep): the batched commit path, which [run_workload] leaves off. *)
let test_group_commit_traced_equals_untraced () =
  let run ~trace = Experiments.group_commit_run ~trace ~quick:false (8, 20.) in
  check_same_run (run ~trace:false) (run ~trace:true)

(* Only recovery's cluster-wide markers (its begin/end/phase events)
   stand outside any node; every other event of a traced run is
   located, so [cblsim trace --node] can select it. *)
let test_events_carry_a_node () =
  let cluster, _ = run_workload ~trace:true () in
  let cluster_wide (e : Event.t) =
    match e.Event.kind with
    | Event.Recovery_begin | Event.Recovery_end | Event.Recovery_phase -> true
    | _ -> false
  in
  let events = Recorder.events (Repro_sim.Env.obs (Cluster.env cluster)) in
  Alcotest.(check bool) "recovery ran" true (List.exists cluster_wide events);
  List.iter
    (fun (e : Event.t) ->
      if e.Event.node < 0 && not (cluster_wide e) then
        Alcotest.failf "event without a node: %s" (Event.render e))
    events

let test_commit_latency_histograms_always_on () =
  let cluster, _ = run_workload ~trace:false () in
  let obs = Repro_sim.Env.obs (Cluster.env cluster) in
  (match Recorder.find_hist obs ~name:"commit_latency" ~node:(-1) with
  | Some h -> Alcotest.(check bool) "commits observed" true (Log_hist.count h > 0)
  | None -> Alcotest.fail "commit_latency cluster histogram missing");
  match Recorder.find_hist obs ~name:"recovery_duration" ~node:1 with
  | Some h -> Alcotest.(check int) "one recovery at node 1" 1 (Log_hist.count h)
  | None -> Alcotest.fail "recovery_duration histogram missing"

(* ---- the invariant under faults, and the trace auditor ---- *)

module Fault_plan = Repro_fault.Fault_plan
module Stress = Repro_workload.Stress

(* A crash and the recovery that follows it belong to no transaction:
   the [crash] and [recovery.*] events carry no causal context, whether
   the driver schedules the crash or a recovery crash point fires. *)
let test_crash_and_recovery_stamp_no_txn () =
  (* the crash and recovery events of [events], failing on a stamped one *)
  let unstamped label events =
    List.filter
      (fun (e : Event.t) ->
        match e.Event.kind with
        | Event.Crash | Event.Recovery_begin | Event.Recovery_end | Event.Recovery_phase
        | Event.Recovery_restart ->
          if e.Event.txn >= 0 then
            Alcotest.failf "%s: stamped with a transaction: %s" label (Event.render e);
          true
        | _ -> false)
      events
  in
  let cluster, _ = run_workload ~trace:true () in
  let obs = Repro_sim.Env.obs (Cluster.env cluster) in
  Alcotest.(check int) "whole run recorded" 0 (Recorder.dropped obs);
  Alcotest.(check bool) "driver crash and recovery traced" true
    (List.length (unstamped "driver crash" (Recorder.events obs)) > 1);
  let classes = Fault_plan.{ no_classes with recovery = true } in
  let restarts = ref 0 in
  for seed = 0 to 19 do
    let cluster, _, _ = Stress.run ~trace:true ~classes ~group_commit:false ~elr:false seed in
    let events = Recorder.events (Repro_sim.Env.obs (Cluster.env cluster)) in
    let sys = unstamped (Printf.sprintf "seed %d (--faults recovery)" seed) events in
    restarts :=
      !restarts
      + List.length (List.filter (fun (e : Event.t) -> e.Event.kind = Event.Recovery_restart) sys)
  done;
  Alcotest.(check bool) "a recovery crash point fired" true (!restarts > 0)

let seeds = 50

(* One pass per fault class mix: 50 seeds, traced vs untraced must be
   bit-identical, and the traced event stream must replay through the
   protocol auditor with zero violations. *)
let check_faulted_invariance spec =
  let classes =
    match Fault_plan.classes_of_string spec with
    | Ok c -> c
    | Error msg -> Alcotest.failf "--faults %s: %s" spec msg
  in
  for seed = 0 to seeds - 1 do
    let run ~trace = Stress.run ~trace ~classes ~group_commit:true ~elr:false seed in
    let traced, ot, _ = run ~trace:true in
    let untraced, ou, _ = run ~trace:false in
    Alcotest.(check (list (pair string int)))
      (Printf.sprintf "seed %d (%s): identical counters" seed spec)
      (Metrics.to_alist (Cluster.global_metrics untraced))
      (Metrics.to_alist (Cluster.global_metrics traced));
    feq
      (Printf.sprintf "seed %d (%s): identical simulated time" seed spec)
      (Cluster.now untraced) (Cluster.now traced);
    Alcotest.(check int)
      (Printf.sprintf "seed %d (%s): identical commits" seed spec)
      ou.Driver.committed ot.Driver.committed;
    let report = Audit.run (Recorder.events (Repro_sim.Env.obs (Cluster.env traced))) in
    if not (Audit.ok report) then
      Alcotest.failf "seed %d (%s): audit found violations:@.%a" seed spec Audit.pp report
  done

let test_faulted_traced_equals_untraced_all () = check_faulted_invariance "all"
let test_faulted_traced_equals_untraced_recovery () = check_faulted_invariance "recovery"

(* ---- the cluster aggregate is computed from the nodes ---- *)

(* [Cluster.global_metrics] must equal an independent field-wise sum of
   the per-node records: every counter exactly, [busy_seconds] up to
   float summation order (it stays 0 under [Config.instant]). *)
let check_aggregate_is_node_sum label cluster =
  let per_node = List.init (Cluster.node_count cluster) (Cluster.node_metrics cluster) in
  let summed =
    List.fold_left
      (fun acc m -> List.map2 (fun (k, a) (_, b) -> (k, a + b)) acc (Metrics.to_alist m))
      (Metrics.to_alist (Metrics.create ()))
      per_node
  in
  let g = Cluster.global_metrics cluster in
  Alcotest.(check (list (pair string int)))
    (label ^ ": counters are the node sum") summed (Metrics.to_alist g);
  let busy = List.fold_left (fun acc m -> acc +. m.Metrics.busy_seconds) 0. per_node in
  Alcotest.(check bool)
    (label ^ ": busy_seconds is the node sum") true
    (Float.abs (g.Metrics.busy_seconds -. busy) <= 1e-9 *. busy)

let scheme_run scheme =
  let cluster = Cluster.create ~scheme ~nodes:3 Config.default in
  let p0 = Cluster.allocate_pages cluster ~owner:0 ~count:12 in
  let p2 = Cluster.allocate_pages cluster ~owner:2 ~count:12 in
  let rng = Rng.create 7 in
  let scripts =
    Generators.partitioned rng
      ~pages_by_owner:[ (0, p0); (2, p2) ]
      ~clients:[ 0; 1; 2 ] ~txns_per_client:6
      ~mix:{ Generators.default_mix with remote_fraction = 0.5 }
  in
  ignore (Driver.run (Engine.of_cluster cluster) scripts);
  cluster

let test_aggregate_is_node_sum () =
  (* server logging: a remote client bumps its shipped records, the
     server its appends *)
  let srv = scheme_run (Repro_cbl.Node_state.Server_logging { server = 0 }) in
  Alcotest.(check bool) "clients shipped records to the server" true
    ((Cluster.node_metrics srv 1).Metrics.log_records_shipped > 0);
  check_aggregate_is_node_sum "server logging" srv;
  (* primary-copy authority: the page owner appends the shipped records *)
  let pca = scheme_run Repro_cbl.Node_state.Pca_double_logging in
  Alcotest.(check bool) "records shipped to page owners" true
    ((Cluster.global_metrics pca).Metrics.log_records_shipped > 0);
  check_aggregate_is_node_sum "pca double logging" pca;
  (* every fault class, crash/recover schedule: seed 93 tears a log tail
     that the recovery seal trims and retries recovery exchanges *)
  let classes = Result.get_ok (Fault_plan.classes_of_string "all") in
  let faulted, _, _ = Stress.run ~classes ~group_commit:true ~elr:false 93 in
  let g = Cluster.global_metrics faulted in
  Alcotest.(check bool) "torn tail trimmed" true (g.Metrics.torn_bytes_discarded > 0);
  Alcotest.(check bool) "recovery retried" true (g.Metrics.recovery_retries > 0);
  check_aggregate_is_node_sum "faults all, seed 93" faulted

(* ---- the auditor flags hand-corrupted traces, one per invariant ---- *)

let ev ?(node = 0) ?txn ~t kind attrs = Event.make ~time:t ~node ?txn kind attrs

let audit_flags name events =
  let r = Audit.run events in
  Alcotest.(check bool)
    (name ^ " flagged") true
    (List.exists (fun v -> v.Audit.invariant = name) r.Audit.violations)

let audit_clean events =
  let r = Audit.run events in
  if not (Audit.ok r) then Alcotest.failf "expected clean audit:@.%a" Audit.pp r

let test_audit_force_before_ship () =
  (* durable boundary 10, then a copy leaves carrying lsn 12: WAL hole *)
  let corrupt =
    [
      ev ~t:1. Event.Log_force [ ("durable", Event.Int 10) ];
      ev ~t:2. Event.Page_ship
        [ ("page", Event.Str "P0.1"); ("psn", Event.Int 3); ("lsn", Event.Int 12) ];
    ]
  in
  audit_flags "force-before-ship" corrupt;
  audit_clean
    [
      ev ~t:1. Event.Log_force [ ("durable", Event.Int 10) ];
      ev ~t:2. Event.Page_ship
        [ ("page", Event.Str "P0.1"); ("psn", Event.Int 3); ("lsn", Event.Int 7) ];
    ];
  (* a truncated trace must skip the check instead of fabricating it *)
  let truncated = corrupt @ [ ev ~t:3. Event.Trace_dropped [ ("count", Event.Int 5) ] ] in
  let r = Audit.run truncated in
  Alcotest.(check bool) "truncated trace skips prefix checks" true (Audit.ok r);
  Alcotest.(check bool) "skip recorded" true (List.mem "force-before-ship" r.Audit.skipped)

let test_audit_batch_loss_closure () =
  (* the batch dies with the node, yet T7 still reports committed *)
  audit_flags "batch-loss-closure"
    [
      ev ~t:1. ~txn:7 Event.Commit_submit [ ("txn", Event.Int 7); ("lsn", Event.Int 5) ];
      ev ~t:2. Event.Crash [];
      ev ~t:3. ~txn:7 Event.Txn_commit [ ("txn", Event.Int 7) ];
    ];
  (* commit reported while the record is still pending: no covering force *)
  audit_flags "batch-loss-closure"
    [
      ev ~t:1. ~txn:7 Event.Commit_submit [ ("txn", Event.Int 7); ("lsn", Event.Int 5) ];
      ev ~t:2. ~txn:7 Event.Txn_commit [ ("txn", Event.Int 7) ];
    ];
  audit_clean
    [
      ev ~t:1. ~txn:7 Event.Commit_submit [ ("txn", Event.Int 7); ("lsn", Event.Int 5) ];
      ev ~t:2. ~txn:7 Event.Log_force [ ("durable", Event.Int 6) ];
      ev ~t:3. ~txn:7 Event.Txn_commit [ ("txn", Event.Int 7) ];
    ]

let test_audit_psn_monotonic () =
  (* two divergent histories under the same page: psn goes backwards *)
  audit_flags "psn-monotonic"
    [
      ev ~t:1. Event.Page_ship [ ("page", Event.Str "P0.1"); ("psn", Event.Int 5) ];
      ev ~t:2. ~node:1 Event.Page_ship [ ("page", Event.Str "P0.1"); ("psn", Event.Int 3) ];
    ];
  audit_clean
    [
      ev ~t:1. Event.Page_ship [ ("page", Event.Str "P0.1"); ("psn", Event.Int 5) ];
      ev ~t:2. ~node:1 Event.Page_ship [ ("page", Event.Str "P0.1"); ("psn", Event.Int 5) ];
    ]

let test_audit_release_after_terminal () =
  (* T3's terminal release at its home node, then more lock activity
     under its context: strict 2PL broken *)
  let prefix =
    [
      ev ~t:1. ~node:1 ~txn:3 Event.Txn_begin [ ("txn", Event.Int 3) ];
      ev ~t:2. ~node:1 ~txn:3 Event.Lock_release [ ("page", Event.Str "P0.1") ];
    ]
  in
  audit_flags "release-after-terminal"
    (prefix @ [ ev ~t:3. ~node:1 ~txn:3 Event.Lock_request [ ("page", Event.Str "P0.2") ] ]);
  audit_flags "release-after-terminal"
    (prefix @ [ ev ~t:3. ~node:1 ~txn:3 Event.Log_append [ ("bytes", Event.Int 25) ] ]);
  (* an owner-table release (holder attr) under T3's context at another
     node is the callback path, not T3's terminal release *)
  audit_clean
    [
      ev ~t:1. ~node:1 ~txn:3 Event.Txn_begin [ ("txn", Event.Int 3) ];
      ev ~t:2. ~node:0 ~txn:3 Event.Lock_release
        [ ("page", Event.Str "P0.1"); ("holder", Event.Int 2) ];
      ev ~t:3. ~node:1 ~txn:3 Event.Lock_request [ ("page", Event.Str "P0.2") ];
    ]

(* The summary lists exactly the steps that ran, in order, and each has
   its [recovery.<name>] histogram (perfbench and E4/E12 read them by
   name). *)
let test_recovery_summary_phases () =
  let check_phases label ?faults ?strategy expected =
    let cluster, _ = run_workload ?faults ~trace:false () in
    Cluster.crash cluster ~node:2;
    let s = Cluster.recover_timed ?strategy cluster ~nodes:[ 2 ] in
    Alcotest.(check (list string)) label expected (List.map fst s.Repro_cbl.Recovery.phases);
    let obs = Repro_sim.Env.obs (Cluster.env cluster) in
    List.iter
      (fun phase ->
        Alcotest.(check bool)
          (label ^ ": recovery." ^ phase ^ " histogram")
          true
          (Recorder.find_hist obs ~name:("recovery." ^ phase) ~node:(-1) <> None))
      expected;
    let sum = List.fold_left (fun acc (_, dt) -> acc +. dt) 0. s.Repro_cbl.Recovery.phases in
    Alcotest.(check bool)
      (label ^ ": phases within total")
      true
      (sum <= s.Repro_cbl.Recovery.total_seconds +. 1e-9);
    Alcotest.(check int)
      (label ^ ": no crash point fired")
      0 (Cluster.global_metrics cluster).Metrics.injected_crashes
  in
  let head = [ "analysis"; "lock_reconstruction"; "gather" ] in
  check_phases "psn-coordinated" (head @ [ "psn_lists"; "redo"; "undo" ]);
  check_phases "merged-logs" ~strategy:Repro_cbl.Recovery.Merged_logs
    (head @ [ "merge_pull"; "redo"; "undo" ]);
  (* Armed recovery crash points put recovery in live mode, which adds
     the end-of-restart checkpoint; a zero crash budget keeps any of
     them from firing, so the attempt runs to the end. *)
  let module Fault_plan = Repro_fault.Fault_plan in
  let plan =
    {
      Fault_plan.none with
      Fault_plan.crashpoints =
        Fault_plan.crashpoints ~budget:0
          [
            (Recovery_analysis, 0.5);
            (Recovery_redo, 0.5);
            (Recovery_pre_undo, 0.5);
            (Recovery_undo, 0.5);
            (Recovery_checkpoint, 0.5);
          ];
    }
  in
  check_phases "live" ~faults:(Repro_fault.Injector.create plan)
    (head @ [ "psn_lists"; "redo"; "undo"; "checkpoint" ])

let suite =
  [
    Alcotest.test_case "ring buffer keeps newest" `Quick test_ring_buffer_keeps_newest;
    Alcotest.test_case "disabled recorder is inert" `Quick test_disabled_recorder_is_inert;
    Alcotest.test_case "recorder enabled late records" `Quick test_recorder_enabled_late_records;
    Alcotest.test_case "overflowed ring reaches every reader" `Quick
      test_overflow_reaches_every_reader;
    Alcotest.test_case "histogram percentiles vs Stats" `Quick
      test_histogram_percentiles_match_stats;
    Alcotest.test_case "histogram edge cases" `Quick test_histogram_edge_cases;
    Alcotest.test_case "observe aggregates cluster-wide" `Quick test_observe_aggregates_cluster;
    Alcotest.test_case "json round trip" `Quick test_json_round_trip;
    Alcotest.test_case "metrics json round trip" `Quick test_metrics_json_round_trip;
    Alcotest.test_case "event json and kind names" `Quick test_event_json_and_kind_names;
    Alcotest.test_case "traced run equals untraced run" `Quick test_traced_equals_untraced;
    Alcotest.test_case "group-commit run: traced equals untraced" `Quick
      test_group_commit_traced_equals_untraced;
    Alcotest.test_case "every non-recovery event carries a node" `Quick
      test_events_carry_a_node;
    Alcotest.test_case "latency histograms always on" `Quick
      test_commit_latency_histograms_always_on;
    Alcotest.test_case "recovery summary phases" `Quick test_recovery_summary_phases;
    Alcotest.test_case "crash and recovery stamp no transaction" `Quick
      test_crash_and_recovery_stamp_no_txn;
    Alcotest.test_case "faulted traced == untraced + clean audit (--faults all, 50 seeds)"
      `Slow test_faulted_traced_equals_untraced_all;
    Alcotest.test_case "faulted traced == untraced + clean audit (--faults recovery, 50 seeds)"
      `Slow test_faulted_traced_equals_untraced_recovery;
    Alcotest.test_case "cluster aggregate is the node sum" `Quick test_aggregate_is_node_sum;
    Alcotest.test_case "audit flags force-before-ship" `Quick test_audit_force_before_ship;
    Alcotest.test_case "audit flags batch-loss-closure" `Quick test_audit_batch_loss_closure;
    Alcotest.test_case "audit flags psn-monotonic" `Quick test_audit_psn_monotonic;
    Alcotest.test_case "audit flags release-after-terminal" `Quick
      test_audit_release_after_terminal;
  ]
