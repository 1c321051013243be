(* Tests for the deterministic fault-injection layer: plan JSON
   round-trips, bit-identical replay (including replay from a dumped
   plan), torn-write recovery, duplicate/reordered ship idempotence,
   partition healing and crash-point schedules.  The regression seeds at
   the bottom replay full randomized stress runs that exposed real bugs
   (partial-batch recovery redo gap; self-crash swallowed inside the
   eviction chain). *)

module Rng = Repro_util.Rng
module Json = Repro_obs.Json
module Recorder = Repro_obs.Recorder
module Fault_plan = Repro_fault.Fault_plan
module Injector = Repro_fault.Injector
module Config = Repro_sim.Config
module Env = Repro_sim.Env
module Metrics = Repro_sim.Metrics
module Page_id = Repro_storage.Page_id
module Lsn = Repro_wal.Lsn
module Record = Repro_wal.Record
module Log_manager = Repro_wal.Log_manager
module Cluster = Repro_cbl.Cluster
module Node = Repro_cbl.Node
module Engine = Repro_workload.Engine
module Driver = Repro_workload.Driver
module Generators = Repro_workload.Generators
module Stress = Repro_workload.Stress

(* ---- Fault plans ---- *)

let test_classes_of_string () =
  let ok s = match Fault_plan.classes_of_string s with Ok c -> c | Error e -> Alcotest.fail e in
  Alcotest.(check bool) "all" true (ok "all").Fault_plan.crashpoints;
  Alcotest.(check bool) "none quiet" false (ok "none").Fault_plan.net;
  Alcotest.(check bool) "empty quiet" false (ok "").Fault_plan.disk;
  let c = ok "net,disk" in
  Alcotest.(check bool) "net on" true c.Fault_plan.net;
  Alcotest.(check bool) "disk on" true c.Fault_plan.disk;
  Alcotest.(check bool) "crashpoints off" false c.Fault_plan.crashpoints;
  Alcotest.(check bool) "reject junk" true
    (match Fault_plan.classes_of_string "nonsense" with Error _ -> true | Ok _ -> false)

let test_plan_json_roundtrip () =
  for seed = 0 to 9 do
    let plan = Fault_plan.generate (Rng.create seed) ~classes:Fault_plan.all_classes in
    let dumped = Json.to_string (Fault_plan.to_json plan) in
    let reloaded = Fault_plan.of_json (Json.of_string dumped) in
    Alcotest.(check string)
      "json round-trip is lossless" dumped
      (Json.to_string (Fault_plan.to_json reloaded))
  done

let test_plan_json_recovery_fields () =
  (* The five recovery crash-point probabilities must survive the dump
     (what [--dump-plan] writes) with their exact values — a plan that
     silently loses them would replay without recovery faults. *)
  let plan =
    {
      Fault_plan.none with
      Fault_plan.seed = 77;
      crashpoints =
        Fault_plan.crashpoints ~budget:3
          [
            (Recovery_analysis, 0.11);
            (Recovery_redo, 0.22);
            (Recovery_pre_undo, 0.33);
            (Recovery_undo, 0.44);
            (Recovery_checkpoint, 0.55);
          ];
    }
  in
  let c = (Fault_plan.of_json (Json.of_string (Json.to_string (Fault_plan.to_json plan)))).Fault_plan.crashpoints in
  Alcotest.(check (float 0.)) "analysis" 0.11 (Fault_plan.prob c Recovery_analysis);
  Alcotest.(check (float 0.)) "redo" 0.22 (Fault_plan.prob c Recovery_redo);
  Alcotest.(check (float 0.)) "pre-undo" 0.33 (Fault_plan.prob c Recovery_pre_undo);
  Alcotest.(check (float 0.)) "undo" 0.44 (Fault_plan.prob c Recovery_undo);
  Alcotest.(check (float 0.)) "checkpoint" 0.55 (Fault_plan.prob c Recovery_checkpoint);
  Alcotest.(check int) "budget" 3 (Fault_plan.budget c);
  (* generating with the recovery class actually arms them *)
  let gen = Fault_plan.generate (Rng.create 7) ~classes:{ Fault_plan.no_classes with Fault_plan.recovery = true } in
  Alcotest.(check bool) "generated recovery probabilities are live" true
    (Fault_plan.prob gen.Fault_plan.crashpoints Recovery_analysis > 0.
    && Fault_plan.prob gen.Fault_plan.crashpoints Recovery_redo > 0.)

(* Digests of [Json.to_string (to_json (generate (Rng.create seed)))]
   for three seeds per class.  They pin the JSON keys, so plans dumped
   by earlier versions still load, and the order [generate] draws in,
   which every historical faulted seed depends on. *)
let plan_json_digests =
  [
    ("all", 1, "d0962dfec6ed7ae0bff40787d0e10d99");
    ("all", 2, "92755d3ee431a2b24e8c6eb0eadb5fba");
    ("all", 42, "3700f1ba00096d10c02f9787f25f58a5");
    ("recovery", 1, "bc39224d8375c90240a920943aa049cb");
    ("recovery", 2, "e1af991dcb8ddf7dd4a03a781dc94be2");
    ("recovery", 42, "5b96f6e14d8cd0fca1995ee685bd4b90");
    ("crashpoints", 1, "c40fb3534b680bf8e1ce3e1469e6e5fa");
    ("crashpoints", 2, "060a9c5884e30136eb862b52f7dbdfc8");
    ("crashpoints", 42, "a1cad70711ce3e333a4675a041eb7b59");
  ]

let test_plan_json_golden () =
  List.iter
    (fun (cls, seed, digest) ->
      let classes = Result.get_ok (Fault_plan.classes_of_string cls) in
      let text = Json.to_string (Fault_plan.to_json (Fault_plan.generate (Rng.create seed) ~classes)) in
      let label what = Printf.sprintf "%s seed %d: %s" cls seed what in
      Alcotest.(check string) (label "digest") digest (Digest.to_hex (Digest.string text));
      Alcotest.(check string)
        (label "of_json round-trips") text
        (Json.to_string (Fault_plan.to_json (Fault_plan.of_json (Json.of_string text)))))
    plan_json_digests

(* ---- Replay determinism ---- *)

(* A small faulted workload with a fixed shape: the only degrees of
   freedom are the fault plan and the workload RNG seed, so two runs
   with equal inputs must be bit-identical. *)
let run_scenario ?(trace = false) ?(config = Config.instant) ~plan seed =
  let rng = Rng.create seed in
  let faults = Injector.create plan in
  let cluster = Cluster.create ~trace ~faults ~nodes:3 ~pool_capacity:12 config in
  let pages_by_owner =
    List.map (fun o -> (o, Cluster.allocate_pages cluster ~owner:o ~count:6)) [ 0; 1 ]
  in
  let engine = Engine.of_cluster cluster in
  let scripts =
    Generators.partitioned rng ~pages_by_owner ~clients:[ 0; 1; 2 ] ~txns_per_client:6
      ~mix:
        {
          Generators.ops_per_txn = 5;
          update_fraction = 0.6;
          remote_fraction = 0.5;
          theta = 0.;
          savepoint_fraction = 0.2;
          abort_fraction = 0.1;
        }
  in
  let events = [ (8, Driver.Crash 1); (20, Driver.Recover [ 1 ]); (30, Driver.Checkpoint 0) ] in
  let outcome = Driver.run engine ~events ~max_rounds:20_000 ~auto_recover:6 scripts in
  let down = List.filter (fun n -> not (Node.is_up (Cluster.node cluster n))) [ 0; 1; 2 ] in
  if down <> [] then Cluster.recover cluster ~nodes:down;
  Cluster.check_invariants cluster;
  (match Driver.verify outcome with
  | Ok () -> ()
  | Error es -> Alcotest.fail (String.concat "; " es));
  Alcotest.(check int) "no stuck scripts" 0 outcome.Driver.stuck;
  (cluster, outcome)

let trace_of cluster =
  Recorder.to_jsonl (Env.obs (Cluster.env cluster))

let mk_plan seed = Fault_plan.generate (Rng.create seed) ~classes:Fault_plan.all_classes

let test_replay_identical () =
  let plan = mk_plan 11 in
  let c1, _ = run_scenario ~trace:true ~plan 11 in
  let c2, _ = run_scenario ~trace:true ~plan 11 in
  let t1 = trace_of c1 and t2 = trace_of c2 in
  Alcotest.(check bool) "trace is non-trivial" true (String.length t1 > 0);
  Alcotest.(check string) "same plan, same workload: identical trace" t1 t2

let test_replay_from_dumped_plan () =
  let plan = mk_plan 12 in
  (* Dump the plan the way [cblsim stress --dump-plan] does, then replay
     from the parsed dump: the trace must be bit-identical, which is
     what makes the dump a complete repro artefact. *)
  let dumped = Json.to_string_pretty (Fault_plan.to_json plan) in
  let reloaded = Fault_plan.of_json (Json.of_string dumped) in
  let c1, _ = run_scenario ~trace:true ~plan 12 in
  let c2, _ = run_scenario ~trace:true ~plan:reloaded 12 in
  Alcotest.(check string) "replay from dumped plan: identical trace" (trace_of c1) (trace_of c2)

let test_unfaulted_rng_untouched () =
  (* A disarmed injector consumes no randomness: a run with a disarmed
     injector is bit-identical to a run with a quiet plan. *)
  let quiet = { Fault_plan.none with Fault_plan.seed = 99 } in
  let armed_quiet = Injector.create quiet in
  let disarmed = Injector.create (mk_plan 13) in
  Injector.set_armed disarmed false;
  let run faults =
    let rng = Rng.create 13 in
    let cluster = Cluster.create ~trace:true ~faults ~nodes:3 ~pool_capacity:12 Config.instant in
    let pages_by_owner = [ (0, Cluster.allocate_pages cluster ~owner:0 ~count:6) ] in
    let scripts =
      Generators.partitioned rng ~pages_by_owner ~clients:[ 0; 1; 2 ] ~txns_per_client:5
        ~mix:Generators.default_mix
    in
    let outcome = Driver.run (Engine.of_cluster cluster) ~max_rounds:20_000 scripts in
    (match Driver.verify outcome with
    | Ok () -> ()
    | Error es -> Alcotest.fail (String.concat "; " es));
    trace_of cluster
  in
  Alcotest.(check string) "disarmed injector leaves the run untouched" (run armed_quiet)
    (run disarmed)

(* ---- Torn log writes ---- *)

let test_torn_crash_unit () =
  (* Unit-level: a torn crash never exposes a complete valid record past
     the pre-crash durable boundary, and [seal] restores the all-frames-
     valid invariant. *)
  let torn_plan =
    { Fault_plan.none with Fault_plan.seed = 5; disk = { Fault_plan.torn = 1.0; corrupt = 0.5 } }
  in
  for attempt = 0 to 7 do
    let inj = Injector.create { torn_plan with Fault_plan.seed = attempt } in
    let env = Env.create Config.instant in
    let metrics = Metrics.create () in
    let log = Log_manager.create env metrics () in
    let append () =
      Log_manager.append log { Record.txn = 1; prev = Lsn.nil; body = Record.Commit }
    in
    for _ = 1 to 4 do
      ignore (append ())
    done;
    Log_manager.force_all log;
    let durable = Log_manager.end_lsn log in
    for _ = 1 to 3 do
      ignore (append ())
    done;
    Log_manager.crash ~faults:inj log;
    let discarded = Log_manager.seal log in
    Alcotest.(check int) "tore the tail" 1 metrics.Metrics.torn_crashes;
    Alcotest.(check bool) "sealing trims, never grows" true (discarded >= 0);
    Alcotest.(check bool) "durable prefix survives" true
      (Lsn.compare durable (Log_manager.end_lsn log) <= 0);
    (* Every surviving record must be readable — the scan is the proof
       that no torn frame is left behind. *)
    let records =
      Log_manager.fold log ~from:Lsn.nil ~init:0 (fun n _ _ -> n + 1)
    in
    Alcotest.(check bool) "clean forward scan over survivors" true (records >= 4)
  done

let test_torn_crash_recovery () =
  (* Cluster-level: crash/recover under a disk-faults-only plan; the
     durability oracle must hold even when recovery starts from a torn
     log tail. *)
  let classes = { Fault_plan.no_classes with Fault_plan.disk = true } in
  for seed = 20 to 24 do
    let plan = Fault_plan.generate (Rng.create seed) ~classes in
    let plan = { plan with Fault_plan.disk = { Fault_plan.torn = 1.0; corrupt = 0.5 } } in
    ignore (run_scenario ~plan seed)
  done

(* ---- Duplicated and reordered ships ---- *)

let test_duplicate_ship_idempotent () =
  (* Every duplicable carrier delivered twice, plus reordering delays:
     the receive paths must be idempotent and the oracle still hold. *)
  let plan =
    {
      Fault_plan.none with
      Fault_plan.seed = 31;
      net =
        {
          Fault_plan.drop = 0.;
          max_drops = 0;
          dup = 1.0;
          delay = 0.5;
          max_delay = 0.05;
          rto = 0.01;
          partition = 0.;
          max_partition = 0;
        };
    }
  in
  let cluster, _ = run_scenario ~plan 31 in
  let g = Cluster.global_metrics cluster in
  Alcotest.(check bool) "duplicates were injected" true (g.Metrics.net_msgs_duplicated > 0)

(* ---- Partitions ---- *)

let test_partition_heals_and_converges () =
  (* Aggressive temporary partitions with a bounded probe budget: blocked
     transactions must retry their way through, and the run converges
     with no stuck scripts (asserted inside [run_scenario]). *)
  let plan =
    {
      Fault_plan.none with
      Fault_plan.seed = 41;
      net =
        {
          Fault_plan.drop = 0.;
          max_drops = 0;
          dup = 0.;
          delay = 0.;
          max_delay = 0.;
          rto = 0.01;
          partition = 0.3;
          max_partition = 6;
        };
    }
  in
  let cluster, _ = run_scenario ~plan 41 in
  let g = Cluster.global_metrics cluster in
  Alcotest.(check bool) "partitions actually blocked links" true (g.Metrics.net_link_blocks > 0)

(* ---- Crash-point schedules ---- *)

let test_crashpoint_schedule () =
  (* Fire named protocol crash points (mid-commit-force, mid-ship,
     mid-checkpoint, mid-rollback) with a bounded budget; auto-recovery
     restarts the stranded scripts and the oracle must hold. *)
  for seed = 50 to 54 do
    let plan =
      {
        Fault_plan.none with
        Fault_plan.seed = seed;
        crashpoints =
          Fault_plan.crashpoints ~budget:2
            [ (Commit_force, 0.05); (Checkpoint, 0.2); (Page_ship, 0.05); (Rollback, 0.05) ];
      }
    in
    let cluster, _ = run_scenario ~plan seed in
    let g = Cluster.global_metrics cluster in
    Alcotest.(check bool) "crash budget respected" true (g.Metrics.injected_crashes <= 2)
  done

(* Every declared point is placed somewhere in the protocol: traced
   stress runs of the [all] and [recovery] classes fire each of them
   (the last, page-ship, first at seed 43). *)
let test_every_crashpoint_fires () =
  let want = List.sort compare (List.map Fault_plan.point_name Fault_plan.points) in
  let fired = Hashtbl.create 16 in
  let recovery = { Fault_plan.no_classes with Fault_plan.recovery = true } in
  let seed = ref 0 in
  while Hashtbl.length fired < List.length want && !seed < 64 do
    List.iter
      (fun classes ->
        let cluster, _, _ = Stress.run ~trace:true ~classes ~group_commit:false ~elr:false !seed in
        List.iter
          (fun e ->
            match Repro_obs.Event.attr_str e "point" with
            | Some p when e.Repro_obs.Event.kind = Repro_obs.Event.Fault_crash ->
              Hashtbl.replace fired p ()
            | Some _ | None -> ())
          (Recorder.events (Env.obs (Cluster.env cluster))))
      [ Fault_plan.all_classes; recovery ];
    incr seed
  done;
  Alcotest.(check (list string))
    "fault.crash points" want
    (List.sort compare (Hashtbl.fold (fun p () acc -> p :: acc) fired []))

(* ---- Regression seeds ---- *)

(* Full randomized stress runs, exactly as [cblsim stress --faults all]
   draws them, for seeds that exposed real bugs:

   - seed 2:   injected crash between two steps of a script — the next
               step must see a retryable [Node_down], not an unknown-
               transaction error.
   - seed 147: three staggered single-node crashes; recovering one node
               while another is still down must not leave a redo gap
               (all down nodes recover as one batch).
   - seed 175: Page_ship crash point firing inside the eviction chain —
               the self-crash must unwind [make_room], not be parked as
               an unreachable-owner block.  Left a phantom cached lock
               the owner never knew about.
   - seed 70:  two nodes crash together; a recovery-undo crash point
               aborts the batch's recovery after both were already
               marked up but before the second node's losers rolled
               back.  The re-entered recovery covers only the
               currently-down node, so the abort handler must withdraw
               the premature up-publication — otherwise the redone
               loser survives as a live update (seen as a doubled
               cell). *)
let stress_iteration seed =
  let _, outcome, _ =
    Stress.run ~classes:Fault_plan.all_classes ~group_commit:false ~elr:false seed
  in
  Alcotest.(check int) (Printf.sprintf "seed %d: no stuck scripts" seed) 0 outcome.Driver.stuck;
  match Driver.verify outcome with
  | Ok () -> ()
  | Error es -> Alcotest.fail (Printf.sprintf "seed %d: %s" seed (String.concat "; " es))

let test_regression_seeds () = List.iter stress_iteration [ 2; 70; 147; 175 ]

(* ---- The stress scenario's golden runs ---- *)

(* Three seeds of [Stress.run] pinned by committed count, simulated time
   and every non-zero counter.  Reordering any RNG draw re-maps every
   historical seed; these catch it first. *)
let check_stress_golden ~classes ~group_commit ~elr seed ~committed ~now counters =
  let cluster, outcome, _ = Stress.run ~classes ~group_commit ~elr seed in
  let label what = Printf.sprintf "seed %d: %s" seed what in
  Alcotest.(check int) (label "committed") committed outcome.Driver.committed;
  Alcotest.(check (float 0.)) (label "simulated time") now (Cluster.now cluster);
  Alcotest.(check (list (pair string int)))
    (label "counters") counters
    (List.filter (fun (_, v) -> v <> 0) (Metrics.to_alist (Cluster.global_metrics cluster)))

let test_stress_golden_all () =
  check_stress_golden ~classes:Fault_plan.all_classes ~group_commit:false ~elr:false 70
    ~committed:31 ~now:0x1.f8825eb4a99a6p+1
    [
      ("messages_sent", 2660); ("message_bytes", 310400); ("log_appends", 642);
      ("log_bytes", 30609); ("log_forces", 98); ("page_disk_reads", 41);
      ("page_disk_writes", 21); ("pages_shipped", 136); ("callbacks_sent", 758);
      ("lock_requests_remote", 1015); ("lock_requests_local", 529); ("cache_hits", 723);
      ("cache_misses", 200); ("txn_committed", 31); ("txn_aborted", 178);
      ("recovery_log_records_scanned", 119); ("recovery_pages_redone", 14);
      ("recovery_messages", 78); ("recovery_page_transfers", 16); ("recovery_restarts", 2);
      ("checkpoints_taken", 4); ("net_msgs_dropped", 384); ("net_msgs_duplicated", 7);
      ("net_msgs_delayed", 207); ("net_link_blocks", 43); ("torn_crashes", 1);
      ("torn_bytes_discarded", 38); ("injected_crashes", 3);
    ]

let test_stress_golden_recovery () =
  check_stress_golden
    ~classes:{ Fault_plan.no_classes with Fault_plan.recovery = true }
    ~group_commit:false ~elr:false 13 ~committed:15 ~now:0.
    [
      ("messages_sent", 103); ("message_bytes", 18268); ("log_appends", 43);
      ("log_bytes", 1798); ("log_forces", 18); ("log_records_shipped", 14);
      ("page_disk_reads", 23); ("page_disk_writes", 48); ("pages_shipped", 2);
      ("callbacks_sent", 18); ("lock_requests_remote", 21); ("lock_requests_local", 29);
      ("cache_hits", 26); ("cache_misses", 26); ("txn_committed", 15); ("txn_aborted", 3);
      ("recovery_log_records_scanned", 78); ("recovery_pages_redone", 2);
      ("recovery_messages", 50); ("recovery_page_transfers", 8); ("recovery_restarts", 3);
      ("checkpoints_taken", 2); ("injected_crashes", 3);
    ]

(* seed 2 draws a batching window (cap 5) and the early-release bit *)
let test_stress_golden_elr () =
  check_stress_golden ~classes:Fault_plan.all_classes ~group_commit:true ~elr:true 2
    ~committed:17 ~now:0x1.b891f07bab1b7p-2
    [
      ("messages_sent", 376); ("message_bytes", 64304); ("log_appends", 305);
      ("log_bytes", 16057); ("log_forces", 37); ("page_disk_reads", 61);
      ("page_disk_writes", 41); ("pages_shipped", 24); ("callbacks_sent", 114);
      ("lock_requests_remote", 80); ("lock_requests_local", 166); ("cache_hits", 231);
      ("cache_misses", 81); ("txn_committed", 17); ("txn_aborted", 32);
      ("commit_batches", 15); ("batched_commits", 16); ("recovery_log_records_scanned", 98);
      ("recovery_pages_redone", 12); ("recovery_messages", 103);
      ("recovery_page_transfers", 13); ("recovery_restarts", 1); ("recovery_retries", 4);
      ("checkpoints_taken", 6); ("net_msgs_dropped", 34); ("net_msgs_duplicated", 1);
      ("net_msgs_delayed", 19); ("net_link_blocks", 9); ("torn_crashes", 2);
      ("torn_bytes_discarded", 55); ("injected_crashes", 2);
    ]

(* ---- Group commit under faults ---- *)

(* Every fault class with commit batching on: a crash between a batch's
   appends and its shared force must lose the WHOLE batch (no prefix of
   it may surface as committed), which is exactly what the durability
   oracle inside [run_scenario] checks. *)
let test_faulted_sweep_with_batching () =
  for seed = 60 to 67 do
    let config =
      Config.with_group_commit Config.instant
        ~window_ms:(float_of_int (2 + (seed mod 3) * 8))
        ~max_batch:(2 + (seed mod 4))
    in
    ignore (run_scenario ~config ~plan:(mk_plan seed) seed)
  done

let suite =
  [
    ("fault classes parse", `Quick, test_classes_of_string);
    ("plan JSON round-trip", `Quick, test_plan_json_roundtrip);
    ("plan JSON keeps recovery crash points", `Quick, test_plan_json_recovery_fields);
    ("golden: plan JSON of generated plans", `Quick, test_plan_json_golden);
    ("replay: same plan, identical trace", `Quick, test_replay_identical);
    ("replay: from dumped plan JSON", `Quick, test_replay_from_dumped_plan);
    ("disarmed injector consumes no randomness", `Quick, test_unfaulted_rng_untouched);
    ("torn crash: unit invariants", `Quick, test_torn_crash_unit);
    ("torn crash: recovery oracle", `Quick, test_torn_crash_recovery);
    ("duplicate + delayed ships are idempotent", `Quick, test_duplicate_ship_idempotent);
    ("partitions heal and runs converge", `Quick, test_partition_heals_and_converges);
    ("crash-point schedules stay within budget", `Quick, test_crashpoint_schedule);
    ("every crash point fires", `Quick, test_every_crashpoint_fires);
    ("regression seeds (2, 70, 147, 175)", `Slow, test_regression_seeds);
    ("golden: stress --faults all seed 70", `Quick, test_stress_golden_all);
    ("golden: stress --faults recovery seed 13", `Quick, test_stress_golden_recovery);
    ("golden: stress --faults all --group-commit --elr seed 2", `Quick, test_stress_golden_elr);
    ("faulted sweep with group commit on", `Slow, test_faulted_sweep_with_batching);
  ]
