module Config = Repro_sim.Config
module Env = Repro_sim.Env
module Metrics = Repro_sim.Metrics
module Cluster = Repro_cbl.Cluster
module Recovery = Repro_cbl.Recovery
module Engine = Repro_workload.Engine
module Driver = Repro_workload.Driver
module Generators = Repro_workload.Generators
module Scale = Repro_workload.Scale
module Schemes = Repro_baselines.Schemes
module Rng = Repro_util.Rng
module Stats = Repro_util.Stats
module Json = Repro_obs.Json
module Recorder = Repro_obs.Recorder
module Critical_path = Repro_obs.Critical_path
module Log_hist = Repro_obs.Log_hist

(* Every experiment ends by checking the durability oracle: the suite
   doubles as an end-to-end integration test.  E8 passes [~verify:false]
   and checks the oracle after its crashes instead: a read before them
   would change the caches it crashes. *)
let run_checked ?(verify = true) engine ?events ?mpl scripts =
  let outcome = Driver.run engine ?events ?mpl scripts in
  if outcome.Driver.stuck > 0 then
    invalid_arg
      (Printf.sprintf "experiment workload wedged: %d stuck scripts (%s)" outcome.Driver.stuck
         engine.Engine.name);
  (match if verify then Driver.verify outcome else Ok () with
  | Ok () -> ()
  | Error errs ->
    invalid_arg
      (Printf.sprintf "durability oracle violated (%s): %s" engine.Engine.name
         (String.concat "; " errs)));
  outcome

(* A partitioned workload over [built]'s owners from [seed], run checked. *)
let run_partitioned ?verify ?events ~seed (built : Schemes.built) ~clients ~txns mix =
  run_checked ?verify built.engine ?events
    (Generators.partitioned (Rng.create seed) ~pages_by_owner:built.pages_by_owner ~clients
       ~txns_per_client:txns ~mix)

(* [f ()] with the cluster-wide counter delta and the simulated time it
   took.  [Cluster.global_metrics] is a fresh sum, so [before] is a
   snapshot without a copy. *)
let measure cluster f =
  let before = Cluster.global_metrics cluster in
  let t0 = Cluster.now cluster in
  let x = f () in
  (x, Metrics.diff ~after:(Cluster.global_metrics cluster) ~before, Cluster.now cluster -. t0)

(* Crash [victims], hand them to [recover], measured. *)
let crash_recover cluster victims recover =
  measure cluster (fun () ->
      List.iter (fun node -> Cluster.crash cluster ~node) victims;
      recover ~nodes:victims)

(* Nodes [updaters], one transaction each in turn, add 1 to cell 0 of
   every page. *)
let increment_all engine ~updaters pages =
  List.iter
    (fun node ->
      let txn = engine.Engine.begin_txn ~node in
      List.iter (fun pid -> engine.Engine.update_delta ~txn ~pid ~off:0 1L) pages;
      engine.Engine.commit ~txn)
    updaters

(* Every page must carry all [want] increments: raises otherwise. *)
let expect_increments ~id engine ~node pages want =
  let txn = engine.Engine.begin_txn ~node in
  List.iter
    (fun pid ->
      let v = engine.Engine.read_cell ~txn ~pid ~off:0 in
      if not (Int64.equal v want) then
        invalid_arg (Printf.sprintf "%s: lost updates (found %Ld, want %Ld)" id v want))
    pages;
  engine.Engine.commit ~txn

let first_pages (built : Schemes.built) =
  match built.pages_by_owner with (_, ps) :: _ -> ps | [] -> assert false

let rec rising = function a :: (b :: _ as rest) -> a < b && rising rest | _ -> true
let all_equal = function [] -> true | x :: rest -> List.for_all (( = ) x) rest
let ratio x n = x /. float_of_int (max 1 n)
let rate count n = ratio (float_of_int count) n
let throughput (o : Driver.outcome) = float_of_int o.committed /. o.sim_seconds

(* ------------------------------------------------------------------ *)
(* F1: the Figure 1 architecture                                       *)
(* ------------------------------------------------------------------ *)

type f1_row = { node : int; m : Metrics.t }

let f1 =
  let owners = [ 0; 2 ] and nodes = [ 0; 1; 2; 3 ] in
  Spec.make ~id:"F1"
    ~title:"Figure 1 architecture: 4 networked nodes, 2 with databases, all with local logs"
    ~claim:
      "§1.1: every node logs locally, including updates to remote data; commit involves no \
       other node"
    ~quick:[ 6 ] ~full:[ 25 ]
    ~run:(fun ~quick:_ txns ->
      let built = Schemes.cbl ~nodes:4 ~owners ~pages_per_owner:24 Config.default in
      ignore
        (run_partitioned ~seed:11 built ~clients:nodes ~txns
           { Generators.default_mix with remote_fraction = 0.4 });
      List.map (fun node -> { node; m = Cluster.node_metrics built.cluster node }) nodes)
    ~columns:
      [
        ("node", fun r -> Printf.sprintf "node %d" r.node);
        ("role", fun r -> if List.mem r.node owners then "owner (has database)" else "client");
        ("committed", fun r -> string_of_int r.m.txn_committed);
        ("commit msgs", fun r -> string_of_int r.m.commit_messages);
        ("log appends", fun r -> string_of_int r.m.log_appends);
        ("log forces", fun r -> string_of_int r.m.log_forces);
        ("pages shipped", fun r -> string_of_int r.m.pages_shipped);
      ]
    ~claims:
      [
        Spec.shown "zero commit-path messages at every node"
          (List.for_all (fun r -> r.m.commit_messages = 0));
      ]
    ()

(* ------------------------------------------------------------------ *)
(* E1: commit path per scheme                                          *)
(* ------------------------------------------------------------------ *)

type e1_row = { scheme : string; remote : float; d : Metrics.t; outcome : Driver.outcome }

let e1 =
  Spec.make ~id:"E1"
    ~title:"Commit-path cost per committed transaction, by scheme and remote-access fraction"
    ~claim:
      "§1.1/§3: CBL sends no log records or pages at commit (0 messages, 1 local force); \
       server logging ships records, PCA ships pages+records, the global log pays per append"
    ~quick:[ 0.0; 1.0 ] ~full:[ 0.0; 0.3; 0.6; 1.0 ]
    ~run:(fun ~quick remote ->
      List.map
        (fun (built : Schemes.built) ->
          let scheme = built.engine.name in
          let clients =
            (* clients sit on the owner nodes so the remote-access
               fraction is exactly the knob; server-logging clients
               must not sit on the server (all data is there) *)
            if String.equal scheme "server-logging" then [ 1; 3 ] else List.map fst built.pages_by_owner
          in
          let outcome, d, _ =
            measure built.cluster (fun () ->
                run_partitioned ~seed:7 built ~clients ~txns:(if quick then 8 else 30)
                  { Generators.default_mix with remote_fraction = remote })
          in
          { scheme; remote; d; outcome })
        (Schemes.all ~nodes:4 ~pages_per_owner:24 Config.default))
    ~columns:
      [
        ("scheme", fun r -> r.scheme);
        ("remote", fun r -> Report.f2 r.remote);
        ("commit msgs/txn", fun r -> Report.per r.d.commit_messages r.outcome.committed);
        ("log forces/txn", fun r -> Report.per r.d.log_forces r.outcome.committed);
        ("commit pg writes/txn", fun r -> Report.per r.d.commit_page_writes r.outcome.committed);
        ("records shipped/txn", fun r -> Report.per r.d.log_records_shipped r.outcome.committed);
        ("sim ms/txn", fun r -> Report.ms (ratio r.outcome.sim_seconds r.outcome.committed));
      ]
    ~claims:
      [
        Spec.silent "cbl sends no commit messages and ships no records"
          (List.for_all (fun r ->
               (not (String.equal r.scheme "cbl")) || (r.d.commit_messages = 0 && r.d.log_records_shipped = 0)));
      ]
    ~notes:(fun rows ->
      let cbl_total = Metrics.create () in
      List.iter (fun r -> if String.equal r.scheme "cbl" then Metrics.merge_into ~dst:cbl_total r.d) rows;
      [
        "expected shape: cbl's commit msgs and records shipped are 0 at every remote fraction";
        "cbl's log forces above 1/txn are WAL-before-ship forces (page transfers), not commit \
         work";
        (* zeros shown on purpose: commit_messages = 0 and
           log_records_shipped = 0 ARE the claim, so "not printed" must
           not be mistaken for "not measured" *)
        Format.asprintf "cbl cumulative counters across all fractions (zeros shown):@.%a"
          (Metrics.pp_with ~show_zeros:true) cbl_total;
      ])
    ()

(* ------------------------------------------------------------------ *)
(* E2: throughput scaling                                              *)
(* ------------------------------------------------------------------ *)

type e2_row = { scheme : string; clients : int; committed : int; busiest : int; busy : float }

let e2 =
  Spec.make ~id:"E2"
    ~title:"Throughput vs number of clients (bottleneck-bounded, committed / busiest node's work)"
    ~claim:
      "§1.2/§4: client-based logging reduces dependencies on server resources; with server \
       logging, the server's log and lock service saturate as clients are added"
    ~quick:[ 2; 4 ] ~full:[ 2; 4; 8; 16 ]
    ~run:(fun ~quick clients ->
      let nodes = List.init clients Fun.id in
      List.map
        (fun (built : Schemes.built) ->
          let outcome =
            run_partitioned ~seed:3 built ~clients:nodes ~txns:(if quick then 5 else 15)
              { Generators.default_mix with remote_fraction = 0.2 }
          in
          let busy_of id = (Cluster.node_metrics built.cluster id).busy_seconds in
          let busiest =
            List.fold_left (fun b id -> if busy_of id > busy_of b then id else b) 0 nodes
          in
          let busy = busy_of busiest in
          { scheme = built.engine.name; clients; committed = outcome.committed; busiest; busy })
        [
          (* fully distributed: every node owns a partition *)
          Schemes.cbl ~nodes:clients ~owners:nodes ~pages_per_owner:16 Config.default;
          Schemes.server_logging ~nodes:clients ~pages:(16 * clients) Config.default;
        ])
    ~columns:
      [
        ("scheme", fun r -> r.scheme);
        ("clients", fun r -> string_of_int r.clients);
        ("committed", fun r -> string_of_int r.committed);
        ("bottleneck busy s", fun r -> Report.f2 r.busy);
        ("txn/s bound", fun r -> Report.f2 (float_of_int r.committed /. r.busy));
        ("bottleneck", fun r -> Printf.sprintf "node %d" r.busiest);
      ]
    ~claims:
      [
        Spec.silent "cbl's txn/s bound rises with clients" (fun rows ->
            rising
              (List.filter_map
                 (fun r ->
                   if String.equal r.scheme "cbl" then Some (float_of_int r.committed /. r.busy) else None)
                 rows));
        Spec.silent "server-logging's bottleneck is always node 0"
          (List.for_all (fun r -> (not (String.equal r.scheme "server-logging")) || r.busiest = 0));
      ]
    ~notes:(fun _ ->
      [
        "expected shape: cbl's txn/s bound grows with clients; server-logging's flattens and \
         its bottleneck is always the server (node 0)";
      ])
    ()

(* ------------------------------------------------------------------ *)
(* E3: commit latency vs network latency                               *)
(* ------------------------------------------------------------------ *)

type e3_row = { scheme : string; latency : float; commit : Stats.summary }

let e3 =
  let means scheme rows =
    List.filter_map (fun r -> if String.equal r.scheme scheme then Some r.commit.mean else None) rows
  in
  Spec.make ~id:"E3"
    ~title:"Commit latency vs one-way network latency (4 updates per txn, remote owner)"
    ~claim:
      "§1.1: local logging eliminates the need to send log records at commit, so CBL's commit \
       latency is independent of network latency; shipping schemes grow linearly with it"
    ~quick:[ 0.5e-3; 5e-3 ] ~full:[ 0.1e-3; 0.5e-3; 1e-3; 2e-3; 5e-3; 10e-3 ]
    ~run:(fun ~quick latency ->
      List.map
        (fun (built : Schemes.built) ->
          let engine = built.engine in
          (* one warm-up txn, then measure pure commit cost *)
          let measure () =
            let txn = engine.begin_txn ~node:1 in
            List.iteri
              (fun i pid -> if i < 4 then engine.update_delta ~txn ~pid ~off:0 1L)
              (first_pages built);
            let t0 = Env.now engine.env in
            engine.commit ~txn;
            Env.now engine.env -. t0
          in
          let _warm = measure () in
          let samples = Array.init (if quick then 5 else 20) (fun _ -> measure ()) in
          { scheme = engine.name; latency; commit = Stats.summarize samples })
        (Schemes.all ~nodes:4 ~pages_per_owner:16 (Config.with_net_latency Config.default latency)))
    ~columns:
      [
        ("scheme", fun r -> r.scheme);
        ("net ms", fun r -> Report.ms r.latency);
        ("commit ms (mean)", fun r -> Report.ms r.commit.mean);
        ("commit ms (max)", fun r -> Report.ms r.commit.max);
      ]
    ~claims:
      [
        (* to the nanosecond: the clock's float rounding grows with its value *)
        Spec.silent "cbl's commit latency is flat in net latency" (fun rows ->
            match means "cbl" rows with
            | [] -> true
            | m :: rest -> List.for_all (fun x -> Float.abs (x -. m) < 1e-9) rest);
        Spec.silent "the other schemes' commit latency rises with it"
          (fun rows ->
            List.for_all (fun r -> String.equal r.scheme "cbl" || rising (means r.scheme rows)) rows);
      ]
    ~notes:(fun _ ->
      [ "expected shape: cbl column constant across net ms; others increase with it" ])
    ()

(* ------------------------------------------------------------------ *)
(* E4: recovery, PSN-coordinated vs merged logs                        *)
(* ------------------------------------------------------------------ *)

type e4_row = {
  strategy : Recovery.strategy;
  txns : int;
  d : Metrics.t;
  dt : float;
  summary : Recovery.summary;
}

let strategy_name = function
  | Recovery.Psn_coordinated -> "psn-coordinated (paper)"
  | Recovery.Merged_logs -> "merged-logs (baseline)"

let e4 =
  Spec.make ~id:"E4" ~title:"Single node crash recovery: the paper's protocol vs merging the logs"
    ~claim:
      "§1.1/§3.2: node log files are not merged at any time; the merge baseline ships every \
       record of every log while CBL moves only NodePSNLists and page-sized rounds"
    ~quick:[ 15 ] ~full:[ 15; 60; 120 ]
    ~run:(fun ~quick:_ txns ->
      List.map
        (fun strategy ->
          (* four private partitions: every node's log is busy with its own
             work, node 1's cache holds the only up-to-date copies of its
             partition at crash time.  The paper's protocol then reads node
             1's log only; the merge baseline must pull all four. *)
          let built =
            Schemes.cbl ~nodes:4 ~owners:[ 0; 1; 2; 3 ] ~pages_per_owner:24 Config.default
          in
          ignore
            (run_partitioned ~events:[ (30, Driver.Checkpoint 1) ] ~seed:13 built
               ~clients:[ 0; 1; 2; 3 ] ~txns
               { Generators.default_mix with remote_fraction = 0.0; update_fraction = 0.8 });
          let summary, d, dt =
            crash_recover built.cluster [ 1 ] (Cluster.recover_timed ~strategy built.cluster)
          in
          { strategy; txns = 4 * txns; d; dt; summary })
        [ Recovery.Psn_coordinated; Recovery.Merged_logs ])
    ~columns:
      [
        ("strategy", fun r -> strategy_name r.strategy);
        ("workload txns", fun r -> string_of_int r.txns);
        ("records scanned", fun r -> string_of_int r.d.recovery_log_records_scanned);
        ("records shipped", fun r -> string_of_int r.d.log_records_shipped);
        ("recovery msgs", fun r -> string_of_int r.d.recovery_messages);
        ("page transfers", fun r -> string_of_int r.d.recovery_page_transfers);
        ("recovery ms", fun r -> Report.ms r.dt);
      ]
    ~claims:
      [
        Spec.silent "the paper's protocol ships no records"
          (List.for_all (fun r ->
               match r.strategy with
               | Recovery.Psn_coordinated -> r.d.log_records_shipped = 0
               | Recovery.Merged_logs -> true));
        Spec.silent "the merge baseline ships records"
          (List.for_all (fun r ->
               match r.strategy with
               | Recovery.Merged_logs -> r.d.log_records_shipped > 0
               | Recovery.Psn_coordinated -> true));
      ]
    ~notes:(fun _ ->
      [
        "expected shape: records shipped is 0 for the paper's protocol and grows with the \
         workload for the merge baseline";
      ])
    ~data:(fun runs ->
      [
        ( "recovery_timings",
          Json.List
            (List.map
               (fun r ->
                 Json.Obj
                   [
                     ("strategy", Json.Str (strategy_name r.strategy));
                     ("workload_txns", Json.Int r.txns);
                     ("summary", Recovery.summary_to_json r.summary);
                   ])
               (List.concat_map snd runs)) );
      ])
    ()

(* ------------------------------------------------------------------ *)
(* E5: NodePSNList coordination vs number of involved nodes            *)
(* ------------------------------------------------------------------ *)

type e5_row = { involved : int; d : Metrics.t; dt : float }

let e5 =
  Spec.make ~id:"E5"
    ~title:"Recovery cost vs number of nodes involved in a page's redo (NodePSNList rounds)"
    ~claim:
      "§2.3.4: the PSN order reconstructs cross-node update order without clocks; cost grows \
       with the number of involved nodes, not with total log volume"
    ~quick:[ 1; 3 ] ~full:[ 1; 2; 4; 7 ]
    ~run:(fun ~quick:_ k ->
      let built =
        Schemes.cbl ~nodes:8 ~owners:[ 0 ] ~pages_per_owner:6
          (Config.with_page_size Config.default 512)
      in
      let pages = List.assoc 0 built.pages_by_owner in
      (* nodes 1..k update every page in turn: k involved logs *)
      increment_all built.engine ~updaters:(List.init k (fun n -> n + 1)) pages;
      (* crash the owner and the last updater: the only up-to-date
         cached copies vanish and every updater's log takes part *)
      let (), d, dt = crash_recover built.cluster [ 0; k ] (Cluster.recover built.cluster) in
      expect_increments ~id:"E5" built.engine ~node:0 pages (Int64.of_int k);
      [ { involved = k; d; dt } ])
    ~columns:
      [
        ("involved nodes", fun r -> string_of_int r.involved);
        ("pages redone", fun r -> string_of_int r.d.recovery_pages_redone);
        ("page transfers", fun r -> string_of_int r.d.recovery_page_transfers);
        ("recovery msgs", fun r -> string_of_int r.d.recovery_messages);
        ("records scanned", fun r -> string_of_int r.d.recovery_log_records_scanned);
        ("recovery ms", fun r -> Report.ms r.dt);
      ]
    ~claims:
      [
        Spec.silent "page transfers rise with involved nodes" (fun rows ->
            rising (List.map (fun r -> r.d.recovery_page_transfers) rows));
      ]
    ~notes:(fun _ ->
      [ "correctness is asserted: every page carries all increments after recovery" ])
    ()

(* ------------------------------------------------------------------ *)
(* E6: log space management                                            *)
(* ------------------------------------------------------------------ *)

type e6_row = { capacity : int option; outcome : Driver.outcome; m : Metrics.t }

let e6 =
  Spec.make ~id:"E6"
    ~title:"Log space management (§2.5): transactions keep committing on tiny log files"
    ~claim:
      "§2.5: when a log fills, replacing the min-RedoLSN page and asking its owner to force it \
       frees log space; no transaction is lost, at the price of extra flushes"
    ~quick:[ Some 16384; None ] ~full:[ Some 8192; Some 16384; Some 65536; None ]
    ~run:(fun ~quick capacity ->
      let cluster =
        Cluster.create ~pool_capacity:8 ?log_capacity:capacity ~nodes:2
          (Config.with_page_size Config.default 512)
      in
      let pages = Cluster.allocate_pages cluster ~owner:0 ~count:16 in
      let scripts =
        Generators.hotspot (Rng.create 23) ~pages ~clients:[ 1 ]
          ~txns_per_client:(if quick then 20 else 80)
          ~mix:{ Generators.default_mix with update_fraction = 1.0; ops_per_txn = 6 }
      in
      let outcome = run_checked (Engine.of_cluster cluster) ~mpl:4 scripts in
      [ { capacity; outcome; m = Cluster.global_metrics cluster } ])
    ~columns:
      [
        ( "log capacity",
          fun r ->
            match r.capacity with
            | Some c -> Format.asprintf "%a" Repro_util.Pretty.bytes c
            | None -> "unbounded" );
        ("committed", fun r -> string_of_int r.outcome.committed);
        ("space stalls", fun r -> string_of_int r.m.log_space_stalls);
        ("flush requests", fun r -> string_of_int r.m.flush_requests);
        ("page writes", fun r -> string_of_int r.m.page_disk_writes);
        ("sim ms", fun r -> Report.ms r.outcome.sim_seconds);
      ]
    ~claims:
      [
        Spec.silent "every log capacity commits the same count"
          (fun rows -> all_equal (List.map (fun r -> r.outcome.committed) rows));
      ]
    ~notes:(fun _ ->
      [
        "expected shape: same committed count everywhere; stalls and flushes only under small \
         capacities";
      ])
    ()

(* ------------------------------------------------------------------ *)
(* E7: independent fuzzy checkpoints                                   *)
(* ------------------------------------------------------------------ *)

type e7_row = { interval : int option; d : Metrics.t; committed : int; restart : Metrics.t }

let e7 =
  Spec.make ~id:"E7"
    ~title:"Fuzzy checkpoints are free of synchronisation and bound restart analysis"
    ~claim:
      "§2.2/§4(4): each node checkpoints independently of the others — no messages, no \
       quiescing — and more frequent checkpoints shorten the restart analysis scan"
    ~quick:[ None; Some 20 ] ~full:[ None; Some 60; Some 30; Some 15 ]
    ~run:(fun ~quick interval ->
      let built = Schemes.cbl ~nodes:4 ~owners:[ 0; 2 ] ~pages_per_owner:24 Config.default in
      let events =
        match interval with
        | None -> []
        | Some every ->
          (* enough repetitions to cover any plausible run length *)
          List.concat_map
            (fun round -> List.map (fun node -> (round, Driver.Checkpoint node)) [ 0; 1; 2; 3 ])
            (List.init (2000 / every) (fun i -> (i + 1) * every))
      in
      let outcome, d, _ =
        measure built.cluster (fun () ->
            run_partitioned ~events ~seed:29 built ~clients:[ 0; 1; 2; 3 ]
              ~txns:(if quick then 10 else 30)
              { Generators.default_mix with remote_fraction = 0.3 })
      in
      (* crash a node afterwards: analysis cost shrinks with frequency *)
      let (), restart, _ = crash_recover built.cluster [ 1 ] (Cluster.recover built.cluster) in
      [ { interval; d; committed = outcome.committed; restart } ])
    ~columns:
      [
        ( "checkpointing",
          fun r ->
            match r.interval with None -> "never" | Some e -> Printf.sprintf "every %d rounds" e );
        ("checkpoints", fun r -> string_of_int r.d.checkpoints_taken);
        ("messages (workload)", fun r -> string_of_int r.d.messages_sent);
        ("committed", fun r -> string_of_int r.committed);
        ("restart records scanned", fun r -> string_of_int r.restart.recovery_log_records_scanned);
      ]
    ~claims:
      [
        Spec.silent "checkpoints add no messages"
          (fun rows -> all_equal (List.map (fun r -> r.d.messages_sent) rows));
      ]
    ~notes:(fun _ ->
      [
        "expected shape: message count identical across rows (checkpoints are purely local); \
         restart scan shrinks as checkpoints become frequent";
      ])
    ()

(* ------------------------------------------------------------------ *)
(* E8: multiple node crashes                                           *)
(* ------------------------------------------------------------------ *)

type e8_row = { victims : int list; d : Metrics.t; dt : float; oracle : bool }

let e8 =
  Spec.make ~id:"E8" ~title:"Recovery from multiple simultaneous node crashes (§2.4)"
    ~claim:
      "§2.4: crashed nodes rebuild DPT supersets from their own logs, owners merge claims, and \
       the same PSN-ordered protocol recovers every page — still without merging logs"
    ~quick:[ [ 1 ] ] ~full:[ [ 1 ]; [ 0; 1 ]; [ 0; 1; 2 ]; [ 0; 1; 2; 4 ] ]
    ~run:(fun ~quick victims ->
      let built = Schemes.cbl ~nodes:6 ~owners:[ 0; 2; 4 ] ~pages_per_owner:16 Config.default in
      let outcome =
        run_partitioned ~verify:false ~seed:31 built ~clients:[ 0; 1; 2; 3; 4; 5 ]
          ~txns:(if quick then 10 else 25)
          { Generators.default_mix with remote_fraction = 0.5 }
      in
      let (), d, dt = crash_recover built.cluster victims (Cluster.recover built.cluster) in
      [ { victims; d; dt; oracle = Result.is_ok (Driver.verify outcome) } ])
    ~columns:
      [
        ("simultaneous crashes", fun r -> string_of_int (List.length r.victims));
        ("records scanned", fun r -> string_of_int r.d.recovery_log_records_scanned);
        ("recovery msgs", fun r -> string_of_int r.d.recovery_messages);
        ("page transfers", fun r -> string_of_int r.d.recovery_page_transfers);
        ("pages redone", fun r -> string_of_int r.d.recovery_pages_redone);
        ("recovery ms", fun r -> Report.ms r.dt);
        ("oracle", fun r -> Spec.word r.oracle);
      ]
    ~claims:
      [
        Spec.silent "the oracle holds after every crash set" (List.for_all (fun r -> r.oracle));
      ]
    ~notes:(fun _ ->
      [ "oracle PASS means all committed updates survived and no uncommitted ones did" ])
    ()

(* ------------------------------------------------------------------ *)
(* E9: inter-transaction caching ablation                              *)
(* ------------------------------------------------------------------ *)

type e9_row = { caching : bool; theta : float; outcome : Driver.outcome; m : Metrics.t }

let e9 =
  let messages r = rate r.m.messages_sent r.outcome.committed in
  let local_ratio r =
    float_of_int r.m.lock_requests_local /. float_of_int r.m.lock_requests_remote
  in
  let points = [ (true, 0.0); (false, 0.0); (true, 0.9); (false, 0.9) ] in
  Spec.make ~id:"E9" ~title:"Inter-transaction caching of locks and pages (§2.1) — ablation"
    ~claim:
      "§2.1/§2.2 (and Rdb's lock carry-over, §3.2): retaining locks and pages across \
       transaction boundaries turns repeat accesses into local operations"
    ~quick:points ~full:points
    ~run:(fun ~quick (caching, theta) ->
      let cluster = Cluster.create ~retain_cached_locks:caching ~nodes:4 Config.default in
      let p0 = Cluster.allocate_pages cluster ~owner:0 ~count:24 in
      let p2 = Cluster.allocate_pages cluster ~owner:2 ~count:24 in
      let scripts =
        Generators.partitioned (Rng.create 37) ~pages_by_owner:[ (0, p0); (2, p2) ]
          ~clients:[ 1; 3 ] ~txns_per_client:(if quick then 10 else 40)
          ~mix:{ Generators.default_mix with remote_fraction = 0.1; theta }
      in
      let outcome = run_checked (Engine.of_cluster cluster) scripts in
      [ { caching; theta; outcome; m = Cluster.global_metrics cluster } ])
    ~columns:
      [
        ("configuration", fun r -> if r.caching then "caching on (paper)" else "caching off");
        ("zipf theta", fun r -> Report.f2 r.theta);
        ("local lock reqs/txn", fun r -> Report.per r.m.lock_requests_local r.outcome.committed);
        ("remote lock reqs/txn", fun r -> Report.per r.m.lock_requests_remote r.outcome.committed);
        ("messages/txn", fun r -> Report.per r.m.messages_sent r.outcome.committed);
        ("sim ms/txn", fun r -> Report.ms (ratio r.outcome.sim_seconds r.outcome.committed));
      ]
    ~claims:
      [
        Spec.silent
          "at each theta, caching cuts messages/txn and raises the local/remote lock ratio"
          (fun rows ->
            List.for_all
              (fun on ->
                let off = List.find (fun r -> (not r.caching) && Float.equal r.theta on.theta) rows in
                (not on.caching)
                || (messages on < messages off && local_ratio on > local_ratio off))
              rows);
      ]
    ~notes:(fun _ ->
      [
        "expected shape: caching multiplies local/remote request ratio and cuts messages per \
         transaction";
      ])
    ()

(* ------------------------------------------------------------------ *)
(* E10: page ping-pong without disk forces                             *)
(* ------------------------------------------------------------------ *)

type e10_row = { scheme : string; handovers : int; d : Metrics.t; outcome : Driver.outcome }

let e10 =
  Spec.make ~id:"E10" ~title:"Two nodes alternately updating the same pages: cost per hand-over"
    ~claim:
      "§4(1)/§3.2: CBL never forces pages to disk at commit or when they move between nodes, \
       unlike Rdb/VMS (force before transfer) and PCA (pages travel at commit)"
    ~quick:[ 6 ] ~full:[ 25 ]
    ~run:(fun ~quick:_ rounds ->
      List.map
        (fun (built : Schemes.built) ->
          let pages = List.filteri (fun i _ -> i < 4) (first_pages built) in
          let scripts = Generators.ping_pong ~pages ~nodes:(1, 3) ~rounds in
          let outcome, d, _ = measure built.cluster (fun () -> run_checked built.engine scripts) in
          { scheme = built.engine.name; handovers = 2 * rounds; d; outcome })
        (Schemes.all ~nodes:4 ~pages_per_owner:8 Config.default))
    ~columns:
      [
        ("scheme", fun r -> r.scheme);
        ("pages shipped/handover", fun r -> Report.per r.d.pages_shipped r.handovers);
        ("disk writes/handover", fun r -> Report.per r.d.page_disk_writes r.handovers);
        ("commit-path writes/handover", fun r -> Report.per r.d.commit_page_writes r.handovers);
        ("sim ms/handover", fun r -> Report.ms (r.outcome.sim_seconds /. float_of_int r.handovers));
      ]
    ~claims:
      [
        Spec.silent "cbl writes no page at hand-over"
          (List.for_all (fun r -> (not (String.equal r.scheme "cbl")) || r.d.page_disk_writes = 0));
        Spec.silent "the global log writes pages at hand-over"
          (List.for_all (fun r ->
               (not (String.equal r.scheme "global-log")) || rate r.d.page_disk_writes r.handovers > 0.5));
      ]
    ~notes:(fun _ ->
      [ "expected shape: cbl ships pages but the disk-write columns stay near zero" ])
    ()

(* ------------------------------------------------------------------ *)
(* E11: group commit — txn/s and commit latency vs batching window     *)
(* ------------------------------------------------------------------ *)

(* Round-robin merge: with one script list per client, the [mpl]
   concurrent transactions come from distinct clients (distinct page
   slices), so commits arrive together and batches actually fill. *)
let interleave lists =
  let rec go acc lists =
    let heads = List.filter_map (function x :: _ -> Some x | [] -> None) lists in
    let tails = List.filter_map (function _ :: t -> Some t | [] -> None) lists in
    if List.is_empty heads then List.rev acc else go (List.rev_append heads acc) tails
  in
  go [] lists

(* One group-commit run: the 8-client conflict-free E11 workload at a
   given (max_batch, window_ms) setting.  Shared with E13, which
   re-runs the same workload traced and decomposes the latency. *)
let group_commit_run ?(trace = false) ~quick (max_batch, window_ms) =
  let clients = 8 in
  let pages_per_client = 4 in
  let txns_per_client = if quick then 5 else 30 in
  let config = Config.with_group_commit Config.default ~window_ms ~max_batch in
  (* the ring is sized so a full traced run never overflows: a truncated
     trace would silently weaken E13's attribution *)
  let cluster = Cluster.create ~trace ~trace_capacity:(1 lsl 20) ~nodes:1 config in
  (* fewer pages than the pool holds: after warm-up there are no
     evictions, so the commit force is the only recurring disk
     operation and the batching win is visible in busy time *)
  let pages = Cluster.allocate_pages cluster ~owner:0 ~count:(clients * pages_per_client) in
  let engine = Engine.of_cluster cluster in
  let rng = Rng.create 41 in
  let scripts =
    interleave
      (List.init clients (fun c ->
           (* disjoint slice per client: no lock conflicts, so all
              eight stay runnable and commit close together *)
           let slice = List.filteri (fun i _ -> i / pages_per_client = c) pages in
           Generators.hotspot rng ~pages:slice ~clients:[ 0 ] ~txns_per_client
             ~mix:
               {
                 Generators.default_mix with
                 update_fraction = 1.0;
                 ops_per_txn = 4;
                 remote_fraction = 0.;
               }))
  in
  let outcome = run_checked engine ~mpl:clients scripts in
  (cluster, outcome)

type e11_row = {
  max_batch : int;
  window_ms : float;
  outcome : Driver.outcome;
  m : Metrics.t;
  speedup : float;
}

let e11 =
  (* throughput is bottleneck-bounded like E2: committed work over the
     node's busy time.  Window waits advance the clock without charging
     busy time, so batching shows up purely as fewer forces, not as
     idling. *)
  let bounded_tps r = float_of_int r.outcome.committed /. r.m.busy_seconds in
  let avg_batch r =
    if r.m.commit_batches = 0 then 1. else rate r.m.batched_commits r.m.commit_batches
  in
  let best rows = List.fold_left (fun acc r -> Float.max acc r.speedup) 1. rows in
  let unbatched rows = List.hd rows in
  let batched = List.tl in
  Spec.make ~id:"E11"
    ~title:"Group commit: throughput and commit latency vs batching window (one node, 8 clients)"
    ~claim:
      "§1.1/§3: the local log force dominates CBL's commit cost; sharing one force across \
       concurrently committing transactions raises committed txn/s without adding messages"
    (* one point: every setting is compared with the unbatched first one *)
    ~quick:[ [ (1, 0.); (8, 20.) ] ]
    ~full:[ [ (1, 0.); (2, 5.); (4, 10.); (8, 20.); (8, 50.) ] ]
    ~run:(fun ~quick settings ->
      let rows =
        List.map
          (fun (max_batch, window_ms) ->
            let cluster, outcome = group_commit_run ~quick (max_batch, window_ms) in
            { max_batch; window_ms; outcome; m = Cluster.node_metrics cluster 0; speedup = 1. })
          settings
      in
      let base = bounded_tps (unbatched rows) in
      List.map (fun r -> { r with speedup = bounded_tps r /. base }) rows)
    ~columns:
      [
        ("max batch", fun r -> string_of_int r.max_batch);
        ("window ms", fun r -> Report.f r.window_ms);
        ("committed", fun r -> string_of_int r.outcome.committed);
        ("busy s", fun r -> Report.f2 r.m.busy_seconds);
        ("txn/s", fun r -> Report.f2 (bounded_tps r));
        ("speedup", fun r -> Report.f2 r.speedup);
        ("avg batch", fun r -> Report.f2 (avg_batch r));
        ("forces/txn", fun r -> Report.per r.m.log_forces r.outcome.committed);
        ("lat mean", fun r -> Report.ms r.outcome.latencies.mean);
        ("lat p95", fun r -> Report.ms r.outcome.latencies.p95);
      ]
    ~claims:
      [
        Spec.silent "batching loses no commits" (fun rows ->
            all_equal (List.map (fun r -> r.outcome.committed) rows));
        Spec.silent "batches form at the largest cap"
          (fun rows ->
            let cap = List.fold_left (fun acc r -> max acc r.max_batch) 1 rows in
            List.for_all (fun r -> r.max_batch < cap || avg_batch r >= 2.) rows);
        Spec.silent "batching cuts forces/txn" (fun rows ->
            let per_txn r = rate r.m.log_forces r.outcome.committed in
            List.for_all (fun r -> per_txn r < per_txn (unbatched rows)) (batched rows));
        Spec.silent "batching raises txn/s" (fun rows ->
            List.for_all (fun r -> bounded_tps r > bounded_tps (unbatched rows)) (batched rows));
        (* the 1.5x target applies to the full run; the quick config is
           too short for batches to amortise and is only a smoke test *)
        Spec.shown "best throughput >= 1.5x the unbatched row"
          (fun rows -> best rows >= 1.5)
          ~note:(fun rows ->
            Printf.sprintf "best throughput %.2fx the unbatched row (target >= 1.5x)" (best rows))
          ~smoke:(fun rows ->
            Printf.sprintf
              "best throughput %.2fx the unbatched row (quick smoke; the >= 1.5x target is \
               checked on the full run)"
              (best rows));
      ]
    ~notes:(fun _ ->
      [
        "conflict-free clients advance in lockstep, so batches fill without waiting out the \
         window and latency falls with the force count; the window only costs latency when a \
         batch is left partial";
      ])
    ()

(* ------------------------------------------------------------------ *)
(* E12: restartable recovery under mid-recovery crashes + deferral     *)
(* ------------------------------------------------------------------ *)

type e12_row = { budget : int; pages : int; parked : int; d : Metrics.t; dt : float }

(* The deterministic deferral scenario: nodes 1, 2 and 3 each increment
   every page owned by node 0, then node 0 does too (recalling the page
   invalidates all peer copies, so no live cache survives).  Crash nodes
   0 and 2 and recover node 0 alone with node 2 deferred: redo hits node
   2's PSN range as a gap on every page and parks them all.  Recovering
   node 2 then runs the completion jobs and every parked page drains.
   Each row re-runs the whole scenario with a different mid-recovery
   crash budget; the recovery crash points abort attempts, and the
   caller re-enters until the down set converges to empty. *)
let e12 =
  Spec.make ~id:"E12"
    ~title:"Restartable recovery: completion and deferred pages vs mid-recovery crashes"
    ~claim:
      "recovery itself is crash-tolerant: aborted attempts re-enter from durable state and \
       converge, and pages blocked on a still-down peer park (locks retained, retryable \
       Page_unavailable) instead of failing, completing when the peer recovers"
    ~quick:[ 0; 2 ] ~full:[ 0; 1; 2; 3 ]
    ~run:(fun ~quick budget ->
      let page_count = if quick then 4 else 6 in
      let none = Repro_fault.Fault_plan.none in
      let faults =
        Repro_fault.Injector.create
          {
            none with
            seed = 900 + budget;
            crashpoints =
              Repro_fault.Fault_plan.crashpoints ~budget
                [
                  (Recovery_analysis, 0.15);
                  (Recovery_redo, 0.2);
                  (Recovery_pre_undo, 0.1);
                  (Recovery_undo, 0.15);
                  (Recovery_checkpoint, 0.1);
                ];
          }
      in
      let cluster = Cluster.create ~faults ~nodes:4 (Config.with_page_size Config.default 512) in
      let pages = Cluster.allocate_pages cluster ~owner:0 ~count:page_count in
      let engine = Engine.of_cluster cluster in
      (* updaters last-to-first-crash order: node 0 updates last, so
         its crash leaves no current copy in any live cache *)
      increment_all engine ~updaters:[ 1; 2; 3; 0 ] pages;
      let deferred () = (Cluster.global_metrics cluster).recovery_deferred_pages in
      let parked, d, dt =
        crash_recover cluster [ 0; 2 ] (fun ~nodes:_ ->
            let before = deferred () in
            Cluster.recover_until_up ~defer:[ 2 ] cluster;
            let parked = deferred () - before in
            Cluster.recover_until_up cluster;
            parked)
      in
      expect_increments ~id:"E12" engine ~node:3 pages 4L;
      Cluster.check_invariants cluster;
      [ { budget; pages = page_count; parked; d; dt } ])
    ~columns:
      [
        ("crash budget", fun r -> string_of_int r.budget);
        ("injected crashes", fun r -> string_of_int r.d.injected_crashes);
        ("restarts", fun r -> string_of_int r.d.recovery_restarts);
        ("retries", fun r -> string_of_int r.d.recovery_retries);
        ("pages parked", fun r -> string_of_int r.parked);
        ("parked completed", fun r -> string_of_int r.d.recovery_deferred_completed);
        ("recovery ms", fun r -> Report.ms r.dt);
        ("outcome", fun _ -> "ok");
      ]
    ~claims:
      [
        Spec.silent "every page parks" (List.for_all (fun r -> r.parked = r.pages));
      ]
    ~notes:(fun _ ->
      [
        "correctness is asserted: after all recoveries every page carries every committed \
         increment and the parked set is empty";
        "pages parked equals the page count (node 2's PSN range gaps every page); they drain by \
         one of two routes — the completion jobs of node 2's recovery (parked completed > 0), \
         or, when a mid-recovery crash fells the owner itself, the self-healing wipe: the \
         parked set dies with the owner's volatile state and the full-batch re-recovery \
         re-derives every page without needing deferral (parked completed = 0)";
      ])
    ()

(* ------------------------------------------------------------------ *)
(* E13: commit-latency attribution — the critical path of E11's runs   *)
(* ------------------------------------------------------------------ *)

type e13_row = {
  batch : string;
  component : string;
  hist : Log_hist.t;
  total : Log_hist.t;  (** the setting's "total" component *)
  driver_mean : float;
  txns : int;
}

(* Re-runs the E11 group-commit workload with causal tracing on, folds
   the event stream through Critical_path, and reports where each
   commit's latency went: lock wait, batch-window wait, log forces,
   network, owner service, other.  The decomposition is validated
   against an independent measurement — the driver's own end-to-end
   commit latencies — and must agree within 5%. *)
let e13 =
  let label (max_batch, window_ms) = Printf.sprintf "%d/%g" max_batch window_ms in
  let err r = Float.abs (Log_hist.mean r.total -. r.driver_mean) /. r.driver_mean in
  Spec.make ~id:"E13"
    ~title:"Commit-latency attribution: critical-path breakdown of the group-commit runs"
    ~claim:
      "§1.1/§3: the local log force dominates CBL's commit cost; the traced critical path \
       shows latency moving from per-txn forces into the shared batch force (and its window \
       wait) as batching grows, with no hidden component — parts sum to the independently \
       measured end-to-end latency"
    ~quick:[ (1, 0.); (8, 20.) ] ~full:[ (1, 0.); (4, 10.); (8, 20.) ]
    ~run:(fun ~quick setting ->
      let cluster, outcome = group_commit_run ~trace:true ~quick setting in
      let cp = Critical_path.analyze (Recorder.events (Env.obs (Cluster.env cluster))) in
      if cp.truncated then invalid_arg "E13: trace ring overflowed";
      let hists = Critical_path.component_hists cp in
      let total = List.assoc "total" hists in
      List.map
        (fun (component, hist) ->
          {
            batch = label setting;
            component;
            hist;
            total;
            driver_mean = outcome.latencies.mean;
            txns = List.length cp.txns;
          })
        hists)
    ~columns:
      [
        ("batch/window", fun r -> r.batch);
        ("component", fun r -> r.component);
        ("p50", fun r -> Report.ms (Log_hist.quantile r.hist 0.5));
        ("p95", fun r -> Report.ms (Log_hist.p95 r.hist));
        ("p99", fun r -> Report.ms (Log_hist.p99 r.hist));
        ("mean", fun r -> Report.ms (Log_hist.mean r.hist));
        ( "share",
          fun r ->
            let total_time = Log_hist.total r.total in
            if total_time <= 0. then "-"
            else Printf.sprintf "%.1f%%" (Log_hist.total r.hist /. total_time *. 100.) );
      ]
    ~claims:
      [
        Spec.shown "attributed mean within 5% of the driver's"
          (List.for_all (fun r -> err r <= 0.05))
          ~each:(fun setting -> "batch " ^ label setting)
          ~note:(fun rows ->
            let r = List.hd rows in
            Printf.sprintf
              "%d txns, attributed mean %s vs driver-measured %s (err %.1f%%, budget 5%%)" r.txns
              (Report.ms (Log_hist.mean r.total))
              (Report.ms r.driver_mean) (err r *. 100.));
      ]
    ~notes:(fun _ ->
      [
        "share is each component's fraction of total attributed time across all commits; \
         'other' holds the explicit un-attributed remainder (CPU charges, lock ops), so the \
         decomposition can't silently drop time";
      ])
    ~data:
      (List.map (fun (setting, rows) ->
           ( "breakdown " ^ label setting,
             Json.Obj (List.map (fun r -> (r.component, Log_hist.to_json r.hist)) rows) )))
    ()

(* ------------------------------------------------------------------ *)
(* E14: big-cluster scale — named profiles over 100× the usual world    *)
(* ------------------------------------------------------------------ *)

(* One deterministic scale run: an N-node CBL cluster, every node an
   owner, [clients] scripted clients generated from a named
   {!Scale.profile}.  Small pages keep the page images of a 256-node
   world affordable; [mpl] bounds in-flight transactions per node so
   thousands of clients queue for admission instead of thrashing the
   lock space.  The durability oracle runs on every point. *)
let scale_point ?(seed = 2026) ?(mpl = 8) ?(pages_per_node = 16) ?(txns_per_client = 4) ~nodes
    ~clients ~profile () =
  let p =
    match Scale.find profile with
    | Some p -> p
    | None ->
      invalid_arg
        (Printf.sprintf "unknown scale profile %S (have: %s)" profile
           (String.concat ", " (Scale.names ())))
  in
  let config = Config.with_page_size Config.default 1024 in
  let built =
    Schemes.cbl ~nodes ~owners:(List.init nodes Fun.id) ~pages_per_owner:pages_per_node config
  in
  let rng = Rng.create seed in
  let scripts =
    Scale.scripts (Rng.split rng) p ~pages_by_owner:built.pages_by_owner ~clients
      ~txns_per_client
  in
  (built.cluster, run_checked built.engine ~mpl scripts)

let scale_abort_rate (o : Driver.outcome) =
  let aborts = o.deadlock_aborts + o.voluntary_aborts in
  float_of_int aborts /. float_of_int (max 1 (o.committed + aborts))

type scale = { nodes : int; clients : int; profile : string; outcome : Driver.outcome }

let scale_columns =
  [
    ("nodes", fun r -> string_of_int r.nodes);
    ("clients", fun r -> string_of_int r.clients);
    ("profile", fun r -> r.profile);
    ("committed", fun r -> string_of_int r.outcome.committed);
    ("txn/s (sim)", fun r -> Report.f2 (throughput r.outcome));
    ("p95 commit", fun r -> Report.ms r.outcome.latencies.p95);
    ("abort rate", fun r -> Printf.sprintf "%.3f" (scale_abort_rate r.outcome));
    ("sched events", fun r -> string_of_int r.outcome.sched_events);
    ( "events/sim-s",
      fun r -> Report.f2 (float_of_int r.outcome.sched_events /. r.outcome.sim_seconds) );
  ]

let scale_header = List.map fst scale_columns

let scale_row ~nodes ~clients ~profile outcome =
  List.map (fun (_, f) -> f { nodes; clients; profile; outcome }) scale_columns

type e14_row = { at : scale; commit_msgs : int }

let e14 =
  Spec.make ~id:"E14" ~title:"Big-cluster scale: 100x the usual world on named workload profiles"
    ~claim:
      "§1.1/§4: commit involves no other node, so growing the cluster adds zero commit-path \
       coordination — cluster-wide txn/s on the serialized simulation clock stays flat as \
       nodes quadruple, commit messages stay zero, and a hot-owner skew surfaces as aborts \
       and p95 latency, never as commit traffic"
    (* uniform sizes check commit-path flatness; the hot-owner point is
       the contrast: imbalance surfaces as aborts and p95, never as
       commit messages *)
    ~quick:[ ("uniform", 8, 64) ]
    ~full:
      [ ("uniform", 16, 128); ("uniform", 32, 256); ("uniform", 64, 512); ("hot-owner", 32, 256) ]
    ~run:(fun ~quick:_ (profile, nodes, clients) ->
      let cluster, outcome = scale_point ~nodes ~clients ~profile () in
      [
        {
          at = { nodes; clients; profile; outcome };
          commit_msgs = (Cluster.global_metrics cluster).commit_messages;
        };
      ])
    ~columns:(List.map (fun (h, f) -> (h, fun r -> f r.at)) scale_columns)
    ~claims:
      [
        Spec.shown "zero commit-path messages across every scale point"
          (List.for_all (fun r -> r.commit_msgs = 0));
        Spec.shown "uniform-profile txn/s flat (within 10%) as the cluster grows" (fun rows ->
            let rates =
              List.filter_map
                (fun r -> if String.equal r.at.profile "uniform" then Some (throughput r.at.outcome) else None)
                rows
            in
            List.fold_left min infinity rates >= 0.9 *. List.fold_left max 0. rates);
      ]
    ~notes:(fun _ ->
      [
        "every node is an owner, clients home round-robin, mpl 8 per node; txn/s and \
         events/sim-s are simulated-time rates (deterministic); wall-clock sim-events/sec is \
         reported by `cblsim scale`";
      ])
    ()

(* ------------------------------------------------------------------ *)
(* E15: early lock release under hot-page contention — elr off vs on   *)
(* ------------------------------------------------------------------ *)

(* One contended group-commit run: [clients] clients all hammer the
   same small hot set under Zipf skew, half the operations updates, on
   a single node with a 10 ms batching window.  With elr off a
   committing transaction keeps its X locks across the whole window, so
   every hot page serializes on durability; with elr on the locks drop
   at batch-submit and blocked acquirers proceed under a commit
   dependency instead of waiting out the force. *)
let elr_run ?(quick = false) ~early_release ~clients () =
  let hot_pages = 16 in
  let txns_per_client = if quick then 5 else 20 in
  let config =
    Config.with_early_release
      (Config.with_group_commit Config.default ~window_ms:10. ~max_batch:8)
      early_release
  in
  let cluster = Cluster.create ~nodes:1 config in
  let pages = Cluster.allocate_pages cluster ~owner:0 ~count:hot_pages in
  let engine = Engine.of_cluster cluster in
  let rng = Rng.create 57 in
  let scripts =
    interleave
      (List.init clients (fun _ ->
           (* every client draws from the same shared hot set: the
              contention is the point, unlike E11's disjoint slices *)
           Generators.hotspot rng ~pages ~clients:[ 0 ] ~txns_per_client
             ~mix:
               {
                 Generators.default_mix with
                 update_fraction = 0.5;
                 ops_per_txn = 3;
                 remote_fraction = 0.;
                 theta = 0.6;
               }))
  in
  let outcome = run_checked engine ~mpl:clients scripts in
  (cluster, outcome)

type e15_row = { clients : int; elr : bool; deps : int; outcome : Driver.outcome }

let e15 =
  (* the gate is judged at the highest MPL, where lock-hold time across
     the batch window hurts the most *)
  let top rows = List.fold_left (fun acc r -> max acc r.clients) 0 rows in
  let at rows elr = List.find (fun r -> r.clients = top rows && Bool.equal r.elr elr) rows in
  let p95_cut rows =
    1. -. ((at rows true).outcome.latencies.p95 /. (at rows false).outcome.latencies.p95)
  in
  let tps rows elr = throughput (at rows elr).outcome in
  Spec.make ~id:"E15"
    ~title:"Early lock release: contended hot pages, locks dropped at batch-submit"
    ~claim:
      "controlled lock violation: under group commit a committing transaction's locks pin hot \
       pages for the whole batching window; releasing them at submit and tracking commit \
       dependencies cuts p95 commit latency >= 20% and raises txn/s at high MPL, without \
       weakening durability (dependents gate on antecedents; a lost batch drags its closure)"
    ~quick:[ 8 ] ~full:[ 4; 8; 16 ]
    ~run:(fun ~quick clients ->
      List.map
        (fun elr ->
          let cluster, outcome = elr_run ~quick ~early_release:elr ~clients () in
          { clients; elr; deps = Cluster.dep_edges_registered cluster; outcome })
        [ false; true ])
    ~columns:
      [
        ("mpl", fun r -> string_of_int r.clients);
        ("elr", fun r -> if r.elr then "on" else "off");
        ("committed", fun r -> string_of_int r.outcome.committed);
        ("txn/s (sim)", fun r -> Report.f2 (throughput r.outcome));
        ("lat mean", fun r -> Report.ms r.outcome.latencies.mean);
        ("lat p95", fun r -> Report.ms r.outcome.latencies.p95);
        ("abort rate", fun r -> Printf.sprintf "%.3f" (scale_abort_rate r.outcome));
        ("deps", fun r -> string_of_int r.deps);
      ]
    ~claims:
      [
        Spec.shown "p95 commit latency cut >= 20% at the highest MPL"
          (fun rows -> p95_cut rows >= 0.20)
          ~note:(fun rows ->
            Printf.sprintf "p95 commit latency cut %.0f%% at mpl %d (target >= 20%%)"
              (100. *. p95_cut rows) (top rows))
          ~smoke:(fun rows ->
            Printf.sprintf
              "p95 cut %.0f%% at mpl %d (quick smoke; the >= 20%% target is checked on the full \
               run)"
              (100. *. p95_cut rows) (top rows));
        Spec.shown "txn/s higher with elr on at the highest MPL"
          (fun rows -> tps rows true > tps rows false)
          ~note:(fun rows ->
            Printf.sprintf "txn/s %.2f -> %.2f at the highest MPL (target: higher with elr on)"
              (tps rows false) (tps rows true))
          ~smoke:(fun rows ->
            Printf.sprintf "txn/s %.2f -> %.2f at mpl %d (quick smoke)" (tps rows false)
              (tps rows true) (top rows));
      ]
    ~notes:(fun _ ->
      [
        "deps counts commit-dependency edges: how often an acquirer actually observed \
         pre-durable state; elr=off rows are the bit-identical baseline (deps = 0 by \
         construction)";
      ])
    ()

(* ------------------------------------------------------------------ *)

let all = [ f1; e1; e2; e3; e4; e5; e6; e7; e8; e9; e10; e11; e12; e13; e14; e15 ]
let ids = List.map Spec.id all
let by_id id = List.find_opt (fun s -> String.equal (Spec.id s) (String.uppercase_ascii id)) all
