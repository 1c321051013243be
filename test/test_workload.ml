(* Tests for the operation DSL, generators and the driver. *)

module Cluster = Repro_cbl.Cluster
module Engine = Repro_workload.Engine
module Driver = Repro_workload.Driver
module Generators = Repro_workload.Generators
module Op = Repro_workload.Op
module Config = Repro_sim.Config
module Page_id = Repro_storage.Page_id
module Rng = Repro_util.Rng
module Stats = Repro_util.Stats

let mk () =
  let c = Cluster.create ~pool_capacity:16 ~nodes:3 Config.instant in
  let pages = Cluster.allocate_pages c ~owner:0 ~count:8 in
  (c, Engine.of_cluster c, pages)

(* ---- Op ---- *)

let test_op_introspection () =
  let p = Page_id.make ~owner:0 ~slot:0 and q = Page_id.make ~owner:0 ~slot:1 in
  let s =
    {
      Op.node = 1;
      actions =
        [
          Op.Read { pid = p; off = 0 };
          Op.Update { pid = q; off = 8; delta = 2L };
          Op.Update { pid = q; off = 8; delta = 3L };
          Op.Savepoint "a";
        ];
    }
  in
  Alcotest.(check int) "pages touched" 2 (List.length (Op.pages_touched s));
  Alcotest.(check int) "cells updated deduped" 1 (List.length (Op.cells_updated s))

(* ---- Generators ---- *)

let test_generator_partitioned_shape () =
  let rng = Rng.create 1 in
  let pages = List.init 8 (fun slot -> Page_id.make ~owner:0 ~slot) in
  let scripts =
    Generators.partitioned rng ~pages_by_owner:[ (0, pages) ] ~clients:[ 1; 2 ]
      ~txns_per_client:5 ~mix:Generators.default_mix
  in
  Alcotest.(check int) "count" 10 (List.length scripts);
  List.iter
    (fun (s : Op.script) ->
      Alcotest.(check bool) "valid node" true (s.Op.node = 1 || s.Op.node = 2);
      Alcotest.(check int) "ops per txn" Generators.default_mix.Generators.ops_per_txn
        (List.length s.Op.actions))
    scripts

let test_generator_checkout_revises_documents () =
  let rng = Rng.create 2 in
  let pages = List.init 4 (fun slot -> Page_id.make ~owner:0 ~slot) in
  let scripts = Generators.checkout rng ~pages ~client:1 ~documents:2 ~revisions:3 in
  Alcotest.(check int) "three revisions" 3 (List.length scripts);
  List.iter
    (fun s -> Alcotest.(check int) "touches the documents" 2 (List.length (Op.pages_touched s)))
    scripts

let test_generator_ping_pong_alternates () =
  let pages = [ Page_id.make ~owner:0 ~slot:0 ] in
  let scripts = Generators.ping_pong ~pages ~nodes:(1, 2) ~rounds:2 in
  Alcotest.(check (list int)) "alternation" [ 1; 2; 1; 2 ]
    (List.map (fun (s : Op.script) -> s.Op.node) scripts)

(* ---- Driver ---- *)

let test_driver_runs_and_verifies () =
  let _c, engine, pages = mk () in
  let rng = Rng.create 3 in
  let scripts =
    Generators.hotspot rng ~pages ~clients:[ 1; 2 ] ~txns_per_client:10
      ~mix:{ Generators.default_mix with theta = 0.5 }
  in
  let outcome = Driver.run engine scripts in
  Alcotest.(check int) "all committed" 20 outcome.Driver.committed;
  Alcotest.(check int) "none stuck" 0 outcome.Driver.stuck;
  match Driver.verify outcome with
  | Ok () -> ()
  | Error errs -> Alcotest.fail (String.concat "; " errs)

let test_driver_voluntary_abort_not_in_shadow () =
  let _c, engine, pages = mk () in
  let p = List.hd pages in
  let scripts =
    [
      { Op.node = 1; actions = [ Op.Update { pid = p; off = 0; delta = 5L }; Op.Abort_self ] };
      { Op.node = 1; actions = [ Op.Update { pid = p; off = 0; delta = 7L } ] };
    ]
  in
  let outcome = Driver.run engine scripts in
  Alcotest.(check int) "one commit" 1 outcome.Driver.committed;
  Alcotest.(check int) "one voluntary abort" 1 outcome.Driver.voluntary_aborts;
  Alcotest.(check (list int64)) "shadow holds only committed" [ 7L ]
    (List.map snd outcome.Driver.shadow);
  match Driver.verify outcome with Ok () -> () | Error e -> Alcotest.fail (List.hd e)

let test_driver_savepoint_oracle () =
  let _c, engine, pages = mk () in
  let p = List.hd pages in
  let scripts =
    [
      {
        Op.node = 1;
        actions =
          [
            Op.Update { pid = p; off = 0; delta = 1L };
            Op.Savepoint "s";
            Op.Update { pid = p; off = 0; delta = 2L };
            Op.Rollback_to "s";
            Op.Update { pid = p; off = 0; delta = 4L };
          ];
      };
    ]
  in
  let outcome = Driver.run engine scripts in
  Alcotest.(check (list int64)) "shadow nets savepoint" [ 5L ] (List.map snd outcome.Driver.shadow);
  match Driver.verify outcome with Ok () -> () | Error e -> Alcotest.fail (List.hd e)

let test_driver_detects_corruption () =
  let c, engine, pages = mk () in
  let p = List.hd pages in
  let scripts = [ { Op.node = 1; actions = [ Op.Update { pid = p; off = 0; delta = 5L } ] } ] in
  let outcome = Driver.run engine scripts in
  (* corrupt the durable state behind the oracle's back *)
  let t = Cluster.begin_txn c ~node:2 in
  Cluster.update_delta c ~txn:t ~pid:p ~off:0 999L;
  Cluster.commit c ~txn:t;
  (match Driver.verify outcome with
  | Ok () -> Alcotest.fail "verify must notice the divergence"
  | Error _ -> ())

let test_driver_crash_event_midway () =
  let _c, engine, pages = mk () in
  let rng = Rng.create 4 in
  let scripts =
    Generators.hotspot rng ~pages ~clients:[ 1; 2 ] ~txns_per_client:8
      ~mix:Generators.default_mix
  in
  let events = [ (6, Driver.Crash 1); (12, Driver.Recover [ 1 ]) ] in
  let outcome = Driver.run engine ~events scripts in
  Alcotest.(check int) "all finish eventually" 16 outcome.Driver.committed;
  match Driver.verify outcome with Ok () -> () | Error e -> Alcotest.fail (List.hd e)

let test_driver_mpl_limits_concurrency () =
  let _c, engine, pages = mk () in
  let rng = Rng.create 5 in
  let scripts =
    Generators.hotspot rng ~pages ~clients:[ 1 ] ~txns_per_client:30
      ~mix:{ Generators.default_mix with update_fraction = 1.0 }
  in
  let outcome = Driver.run engine ~mpl:2 scripts in
  Alcotest.(check int) "all committed" 30 outcome.Driver.committed;
  match Driver.verify outcome with Ok () -> () | Error e -> Alcotest.fail (List.hd e)

let test_driver_opposite_order () =
  (* opposite-order scripts under wound-wait: no cycle, both finish *)
  let _c, engine, pages = mk () in
  let p = List.hd pages and q = List.nth pages 1 in
  let scripts =
    [
      {
        Op.node = 1;
        actions =
          [ Op.Update { pid = p; off = 0; delta = 1L }; Op.Update { pid = q; off = 0; delta = 1L } ];
      };
      {
        Op.node = 2;
        actions =
          [ Op.Update { pid = q; off = 8; delta = 1L }; Op.Update { pid = p; off = 8; delta = 1L } ];
      };
    ]
  in
  let outcome = Driver.run engine scripts in
  Alcotest.(check int) "both finish" 2 outcome.Driver.committed;
  match Driver.verify outcome with Ok () -> () | Error e -> Alcotest.fail (List.hd e)

(* ---- driver paths behind injected failures ---- *)

module Block = Repro_cbl.Block

(* [e] with its transactional calls logged in [log], newest first, as
   (call, txn) pairs.  [inject call txn] runs before the real call and
   may raise [Block.Would_block] to fake a blocked request.  A
   commit_outcome answer of [`Durable] is logged as "durable". *)
let spied log ?(inject = fun _ _ -> ()) (e : Engine.t) =
  let note call txn =
    log := (call, txn) :: !log;
    inject call txn
  in
  {
    e with
    Engine.begin_txn =
      (fun ~node ->
        let txn = e.Engine.begin_txn ~node in
        log := ("begin", txn) :: !log;
        txn);
    read_cell =
      (fun ~txn ~pid ~off ->
        note "read" txn;
        e.Engine.read_cell ~txn ~pid ~off);
    update_delta =
      (fun ~txn ~pid ~off d ->
        note "update" txn;
        e.Engine.update_delta ~txn ~pid ~off d);
    commit =
      (fun ~txn ->
        note "commit" txn;
        e.Engine.commit ~txn);
    commit_outcome =
      (fun ~txn ->
        match e.Engine.commit_outcome ~txn with
        | `Durable ->
          log := ("durable", txn) :: !log;
          `Durable
        | (`Pending | `Gone) as o -> o);
    abort =
      (fun ~txn ->
        note "abort" txn;
        e.Engine.abort ~txn);
    crash =
      (fun ~node ->
        log := ("crash", node) :: !log;
        e.Engine.crash ~node);
  }

let calls log call = List.rev (List.filter_map (fun (c, t) -> if c = call then Some t else None) !log)
let conflict blockers = raise (Block.Would_block (Block.Lock_conflict { blockers }))
let verify_ok o = match Driver.verify o with Ok () -> () | Error e -> Alcotest.fail (List.hd e)

(* A forced abort whose rollback blocks leaves the transaction half
   rolled back: the script must retry only the abort — never run the
   transaction forward or commit it — and then restart under a new id,
   crediting the deltas once. *)
let test_driver_blocked_abort_quarantines () =
  let _c, engine, pages = mk () in
  let p = List.hd pages and q = List.nth pages 1 in
  let log = ref [] in
  let inject call txn =
    match call with
    | "update" when List.length (calls log "update") = 2 -> conflict [ txn ] (* blocked by itself *)
    | "abort" when List.length (calls log "abort") <= 2 ->
      raise (Block.Would_block (Block.Node_down { node = 0 }))
    | _ -> ()
  in
  let script =
    {
      Op.node = 1;
      actions =
        [ Op.Update { pid = p; off = 0; delta = 5L }; Op.Update { pid = q; off = 0; delta = 7L } ];
    }
  in
  let o = Driver.run (spied log ~inject engine) [ script ] in
  let first = List.hd (calls log "begin") in
  Alcotest.(check (list int)) "the abort alone is retried, until it completes" [ first; first; first ]
    (calls log "abort");
  let rec from_first_abort = function
    | ("abort", t) :: _ as rest when t = first -> rest
    | _ :: rest -> from_first_abort rest
    | [] -> []
  in
  List.iter
    (fun (call, t) ->
      if t = first && call <> "abort" then Alcotest.failf "%s on the quarantined transaction" call)
    (from_first_abort (List.rev !log));
  (match calls log "begin" with
  | [ _; second ] -> Alcotest.(check (list int)) "only the restart commits" [ second ] (calls log "commit")
  | begins -> Alcotest.failf "expected one restart, saw %d begins" (List.length begins));
  Alcotest.(check int) "committed" 1 o.Driver.committed;
  Alcotest.(check int) "one forced abort" 1 o.Driver.deadlock_aborts;
  Alcotest.(check (list int64)) "deltas credited once" [ 5L; 7L ]
    (List.map snd (List.sort compare o.Driver.shadow));
  verify_ok o

let one_update node pid = { Op.node; actions = [ Op.Update { pid; off = 0; delta = 1L } ] }

(* Wound-wait: an older transaction blocked by a younger one aborts it;
   a younger one blocked by an older one waits. *)
let test_driver_wound_wait () =
  let conflict_on ~older_waits =
    let _c, engine, pages = mk () in
    let log = ref [] in
    let fired = ref false in
    let inject call txn =
      match (call, calls log "begin") with
      | "update", [ older; younger ] when not !fired ->
        let waiter, blocker = if older_waits then (older, younger) else (younger, older) in
        if txn = waiter then begin
          fired := true;
          conflict [ blocker ]
        end
      | _ -> ()
    in
    let scripts = [ one_update 1 (List.hd pages); one_update 2 (List.nth pages 1) ] in
    let o = Driver.run (spied log ~inject engine) scripts in
    Alcotest.(check bool) "conflict injected" true !fired;
    Alcotest.(check int) "both commit" 2 o.Driver.committed;
    verify_ok o;
    (o, calls log "begin", calls log "abort")
  in
  let o, begins, aborts = conflict_on ~older_waits:true in
  Alcotest.(check (list int)) "the older wounds the younger" [ List.nth begins 1 ] aborts;
  Alcotest.(check int) "one wound" 1 o.Driver.deadlock_aborts;
  let o, _, aborts = conflict_on ~older_waits:false in
  Alcotest.(check (list int)) "the younger waits" [] aborts;
  Alcotest.(check int) "no wound" 0 o.Driver.deadlock_aborts

(* A committing blocker is never wounded: its fate is the batch force. *)
let test_driver_committing_blocker_not_wounded () =
  let config = Config.with_group_commit Config.instant ~window_ms:20. ~max_batch:8 in
  let c = Cluster.create ~pool_capacity:16 ~nodes:3 config in
  let pages = Cluster.allocate_pages c ~owner:0 ~count:8 in
  let p = List.hd pages and q = List.nth pages 1 in
  let log = ref [] in
  let fired = ref false in
  let inject call txn =
    match (call, calls log "begin") with
    | "update", [ older; younger ]
      when txn = older && List.mem younger (calls log "commit")
           && (not (List.mem younger (calls log "durable")))
           && not !fired ->
      fired := true;
      conflict [ younger ]
    | _ -> ()
  in
  let scripts =
    [
      {
        Op.node = 1;
        actions =
          [ Op.Read { pid = p; off = 0 }; Op.Read { pid = p; off = 0 };
            Op.Update { pid = p; off = 0; delta = 1L } ];
      };
      one_update 2 q;
    ]
  in
  let o = Driver.run (spied log ~inject (Engine.of_cluster c)) scripts in
  Alcotest.(check bool) "blocked by a committing transaction" true !fired;
  Alcotest.(check (list int)) "no wound" [] (calls log "abort");
  Alcotest.(check int) "both commit" 2 o.Driver.committed;
  verify_ok o

(* A crash that finds a script Committing after its batch has forced:
   the commit is durable and is credited, once — the script is not
   re-run. *)
let test_driver_crash_after_batch_force () =
  let config = Config.with_group_commit Config.instant ~window_ms:20. ~max_batch:8 in
  let c = Cluster.create ~pool_capacity:16 ~nodes:3 config in
  let pages = Cluster.allocate_pages c ~owner:0 ~count:8 in
  let log = ref [] in
  let events = [ (4, Driver.Crash 1) ] in
  let o =
    Driver.run (spied log (Engine.of_cluster c)) ~events [ one_update 1 (List.hd pages) ]
  in
  (* the run ends with the commit credited, before any Recover event
     could fire: recover here, so the oracle reads the restarted state *)
  Cluster.recover c ~nodes:[ 1 ];
  let begins = calls log "begin" in
  Alcotest.(check int) "never re-run" 1 (List.length begins);
  Alcotest.(check int) "one commit call" 1 (List.length (calls log "commit"));
  let rec durable_then_crash = function
    | ("durable", t) :: ("crash", 1) :: _ -> t = List.hd begins
    | _ :: rest -> durable_then_crash rest
    | [] -> false
  in
  Alcotest.(check bool) "the crash found the forced commit" true
    (durable_then_crash (List.rev !log));
  Alcotest.(check int) "committed" 1 o.Driver.committed;
  Alcotest.(check (list int64)) "credited once" [ 1L ] (List.map snd o.Driver.shadow);
  verify_ok o

(* ---- run-queue bit-identity goldens ---- *)

(* The driver's wake-time run queue (PR 7) must replay the legacy
   round-robin scan order bit for bit: these fingerprints were captured
   on the pre-refactor driver, and any drift here means historical seeds
   changed observable behaviour — commit counts, abort mix, round
   counts, simulated latencies, or the final shadow state.  The
   [sched_events] counts were captured on the polling driver, before
   scripts waiting on the MPL cap were parked off the run queue: the
   count of parked visits must come out the same. *)

let float_exact = Alcotest.float 0.

let shadow_fingerprint (o : Driver.outcome) =
  let shadow = List.sort compare o.Driver.shadow in
  (List.length shadow, Hashtbl.hash shadow)

let test_golden_hotspot_instant () =
  let c = Cluster.create ~pool_capacity:16 ~nodes:3 Config.instant in
  let pages = Cluster.allocate_pages c ~owner:0 ~count:8 in
  let rng = Rng.create 3 in
  let scripts =
    Generators.hotspot rng ~pages ~clients:[ 1; 2 ] ~txns_per_client:10
      ~mix:{ Generators.default_mix with theta = 0.5 }
  in
  let o = Driver.run (Engine.of_cluster c) scripts in
  Alcotest.(check int) "committed" 20 o.Driver.committed;
  Alcotest.(check int) "voluntary aborts" 0 o.Driver.voluntary_aborts;
  Alcotest.(check int) "deadlock aborts" 110 o.Driver.deadlock_aborts;
  Alcotest.(check int) "stuck" 0 o.Driver.stuck;
  Alcotest.(check int) "rounds" 449 o.Driver.rounds;
  Alcotest.(check int) "sched events" 1304 o.Driver.sched_events;
  Alcotest.(check (pair int int)) "shadow" (58, 672153263) (shadow_fingerprint o)

let test_golden_partitioned_crash () =
  let c = Cluster.create ~nodes:4 Config.default in
  let pages_by_owner =
    List.map (fun o -> (o, Cluster.allocate_pages c ~owner:o ~count:24)) [ 0; 2 ]
  in
  let rng = Rng.create 11 in
  let scripts =
    Generators.partitioned rng ~pages_by_owner ~clients:[ 0; 1; 2; 3 ] ~txns_per_client:25
      ~mix:{ Generators.default_mix with remote_fraction = 0.4 }
  in
  let events = [ (6, Driver.Crash 1); (12, Driver.Recover [ 1 ]) ] in
  let o = Driver.run (Engine.of_cluster c) ~events scripts in
  Alcotest.(check int) "committed" 100 o.Driver.committed;
  Alcotest.(check int) "deadlock aborts" 838 o.Driver.deadlock_aborts;
  Alcotest.(check int) "rounds" 977 o.Driver.rounds;
  Alcotest.(check int) "sched events" 11813 o.Driver.sched_events;
  Alcotest.check float_exact "sim seconds" 23.253263399998655 o.Driver.sim_seconds;
  Alcotest.check float_exact "latency mean" 2.7336152114999011 o.Driver.latencies.Stats.mean;
  Alcotest.check float_exact "latency p95" 7.1481672500001903 o.Driver.latencies.Stats.p95;
  Alcotest.(check (pair int int)) "shadow" (317, 858063208) (shadow_fingerprint o)

let test_golden_mpl_savepoints () =
  let c = Cluster.create ~nodes:4 ~pool_capacity:16 Config.instant in
  let pages_by_owner =
    List.map (fun o -> (o, Cluster.allocate_pages c ~owner:o ~count:12)) [ 0; 1 ]
  in
  let rng = Rng.create 7 in
  let scripts =
    Generators.partitioned rng ~pages_by_owner ~clients:[ 0; 1; 2; 3 ] ~txns_per_client:8
      ~mix:
        {
          Generators.default_mix with
          remote_fraction = 0.6;
          theta = 0.9;
          savepoint_fraction = 0.2;
          abort_fraction = 0.1;
        }
  in
  let o = Driver.run (Engine.of_cluster c) ~mpl:2 scripts in
  Alcotest.(check int) "committed" 29 o.Driver.committed;
  Alcotest.(check int) "voluntary aborts" 3 o.Driver.voluntary_aborts;
  Alcotest.(check int) "deadlock aborts" 92 o.Driver.deadlock_aborts;
  Alcotest.(check int) "rounds" 525 o.Driver.rounds;
  Alcotest.(check int) "sched events" 6188 o.Driver.sched_events;
  Alcotest.(check (pair int int)) "shadow" (88, 573119324) (shadow_fingerprint o)

(* The admission queue under its hardest mix: an MPL cap that keeps
   most scripts waiting, wounds aborting younger holders (whose scripts
   then wait to begin again), and a crash that resets every
   in-flight transaction on its node, recovered by [auto_recover]
   before the scheduled [Recover] arrives. *)
let test_golden_mpl_crash_auto_recover () =
  let c = Cluster.create ~nodes:4 Config.default in
  let pages_by_owner =
    List.map (fun o -> (o, Cluster.allocate_pages c ~owner:o ~count:16)) [ 0; 3 ]
  in
  let rng = Rng.create 23 in
  let scripts =
    Generators.partitioned rng ~pages_by_owner ~clients:[ 0; 1; 2; 3 ] ~txns_per_client:12
      ~mix:{ Generators.default_mix with remote_fraction = 0.5 }
  in
  let events = [ (8, Driver.Crash 2); (40, Driver.Recover [ 2 ]) ] in
  let o =
    Driver.run (Engine.of_cluster c) ~events ~mpl:2 ~auto_recover:5 scripts
  in
  Alcotest.(check int) "committed" 48 o.Driver.committed;
  Alcotest.(check int) "rounds" 461 o.Driver.rounds;
  Alcotest.(check int) "sched events" 9325 o.Driver.sched_events;
  Alcotest.check float_exact "sim seconds" 4.8834678499999464 o.Driver.sim_seconds;
  Alcotest.(check (pair int int)) "shadow" (160, 217476610) (shadow_fingerprint o)

let interleave lists =
  let rec go acc lists =
    let heads = List.filter_map (function x :: _ -> Some x | [] -> None) lists in
    let tails = List.filter_map (function _ :: t -> Some t | [] -> None) lists in
    if heads = [] then List.rev acc else go (List.rev_append heads acc) tails
  in
  go [] lists

let test_golden_group_commit () =
  let config = Config.with_group_commit Config.default ~window_ms:20. ~max_batch:8 in
  let c = Cluster.create ~nodes:1 config in
  let pages = Cluster.allocate_pages c ~owner:0 ~count:32 in
  let rng = Rng.create 41 in
  let scripts =
    interleave
      (List.init 8 (fun cl ->
           let slice = List.filteri (fun i _ -> i / 4 = cl) pages in
           Generators.hotspot rng ~pages:slice ~clients:[ 0 ] ~txns_per_client:10
             ~mix:
               {
                 Generators.default_mix with
                 update_fraction = 1.0;
                 ops_per_txn = 4;
                 remote_fraction = 0.;
               }))
  in
  let o = Driver.run (Engine.of_cluster c) ~mpl:8 scripts in
  Alcotest.(check int) "committed" 80 o.Driver.committed;
  Alcotest.(check int) "rounds" 70 o.Driver.rounds;
  Alcotest.(check int) "sched events" 3070 o.Driver.sched_events;
  Alcotest.check float_exact "sim seconds" 0.36367120000001774 o.Driver.sim_seconds;
  Alcotest.check float_exact "latency mean" 0.035436592500001737 o.Driver.latencies.Stats.mean;
  Alcotest.check float_exact "latency p95" 0.22165800000000091 o.Driver.latencies.Stats.p95;
  Alcotest.(check (pair int int)) "shadow" (247, 404002083) (shadow_fingerprint o)

let suite =
  [
    ("op introspection", `Quick, test_op_introspection);
    ("generator: partitioned shape", `Quick, test_generator_partitioned_shape);
    ("generator: checkout", `Quick, test_generator_checkout_revises_documents);
    ("generator: ping-pong alternates", `Quick, test_generator_ping_pong_alternates);
    ("driver runs and verifies", `Quick, test_driver_runs_and_verifies);
    ("driver voluntary abort", `Quick, test_driver_voluntary_abort_not_in_shadow);
    ("driver savepoint oracle", `Quick, test_driver_savepoint_oracle);
    ("driver detects corruption", `Quick, test_driver_detects_corruption);
    ("driver crash event midway", `Quick, test_driver_crash_event_midway);
    ("driver MPL", `Quick, test_driver_mpl_limits_concurrency);
    ("driver opposite-order updates", `Quick, test_driver_opposite_order);
    ("driver blocked abort quarantines", `Quick, test_driver_blocked_abort_quarantines);
    ("driver wound-wait", `Quick, test_driver_wound_wait);
    ("driver committing blocker not wounded", `Quick, test_driver_committing_blocker_not_wounded);
    ("driver crash after batch force", `Quick, test_driver_crash_after_batch_force);
    ("golden: hotspot on instant cluster", `Quick, test_golden_hotspot_instant);
    ("golden: partitioned with crash/recover", `Quick, test_golden_partitioned_crash);
    ("golden: mpl cap, savepoints", `Quick, test_golden_mpl_savepoints);
    ("golden: group commit", `Quick, test_golden_group_commit);
    ("golden: mpl cap, crash, auto-recover", `Quick, test_golden_mpl_crash_auto_recover);
  ]
