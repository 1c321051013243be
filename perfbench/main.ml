(* The repository benchmark.

   main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]

   --trace 0 repeats the workload untraced for S seconds, cycling
   through the four input seeds 4N..4N+3, and prints the end-to-end
   metrics: medians over the repetitions.  --trace 1 runs input seed 4N
   once with the simulator's event recorder on (commit-latency
   attribution), then alternates untraced and span-traced repetitions
   of it for S seconds, prints the layers ranked by wall-time share,
   writes the last repetition's spans to _perfbench/ and reports the
   per-layer metrics.  Either way every repetition must pass the
   correctness gate and reproduce its input seed's simulated run bit
   for bit.  The last line of standard output is one JSON object:
   correct, attempted, failed and metrics (name -> value and unit). *)

open Perfbench
module Driver = Repro_workload.Driver
module Metrics = Repro_sim.Metrics
module Stats = Repro_util.Stats
module Critical_path = Repro_obs.Critical_path

type metric = { name : string; unit_ : string; value : float }

let metric name unit_ value = { name; unit_; value }
let ratio a b = if b = 0. then 0. else a /. b
let per a b = ratio (float_of_int a) (float_of_int b)

let median = function
  | [] -> 0.
  | xs ->
    let a = Array.of_list xs in
    Array.sort Float.compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Metric-wise median over repetitions that report the same names. *)
let medians = function
  | [] -> []
  | first :: _ as runs ->
    List.mapi
      (fun i m -> { m with value = median (List.map (fun r -> (List.nth r i).value) runs) })
      first

(* Runs [f 0], [f 1], ... until [seconds] have passed, stopping only
   after a whole number of [cycle]s. *)
let repeat ~seconds ~cycle f =
  let deadline = Spans.now () +. float_of_int seconds in
  let rec go acc n =
    (* every repetition starts from the same compacted heap *)
    Gc.compact ();
    let acc = f n :: acc in
    if (n + 1) mod cycle = 0 && Spans.now () >= deadline then List.rev acc else go acc (n + 1)
  in
  go [] 0

(* An end-to-end run cycles through [inputs] input sets drawn from the
   seed, so one unlucky draw cannot set the run's medians. *)
let inputs = 4
let input_seed seed k = (seed * inputs) + k
let spans_dir = "_perfbench"

(* ---- end-to-end metrics (--trace 0) ---- *)

let end_to_end (r : Rep.t) =
  let o = r.Rep.outcome in
  let committed = o.Driver.committed in
  let attempts = committed + o.Driver.deadlock_aborts + o.Driver.voluntary_aborts in
  let restarts f = median (List.map f r.Rep.restarts) *. 1e3 in
  [
    metric "wall_txn_per_s" "1/s" (ratio (float_of_int committed) r.Rep.run_s);
    metric "wall_events_per_s" "1/s" (ratio (float_of_int o.Driver.sched_events) r.Rep.run_s);
    metric "setup_s" "s" (r.Rep.setup_cluster_s +. r.Rep.setup_scripts_s);
    metric "minor_words_per_txn" "words"
      (ratio r.Rep.run_gc.Rep.minor_words (float_of_int committed));
    metric "sim_txn_per_s" "1/s" (ratio (float_of_int committed) o.Driver.sim_seconds);
    metric "sim_commit_p50_ms" "ms" (o.Driver.latencies.Stats.p50 *. 1e3);
    metric "sim_commit_p99_ms" "ms" (o.Driver.latencies.Stats.p99 *. 1e3);
    metric "sim_attempts_per_commit" "ratio" (per attempts committed);
    metric "sim_recovery_ms_p50" "ms" (restarts (fun x -> x.Wrap.sim_s));
    metric "recovery_wall_ms_p50" "ms" (restarts (fun x -> x.Wrap.wall_s));
    metric "ok_rate" "ratio" (1. -. per (List.length r.Rep.errors) r.Rep.scripts);
  ]

let peak_heap_mb () =
  metric "peak_heap_mb" "MB"
    (float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6)

(* ---- per-layer metrics (--trace 1) ---- *)

let reported_ops =
  Spans.[ Begin; Read; Update; Commit; Outcome; Pump; Abort; Crash; Recover; Checkpoint; Is_up ]

let recovery_phases = [ "analysis"; "lock_reconstruction"; "gather"; "psn_lists"; "redo"; "undo" ]

(* Per-layer numbers of one span-traced repetition. *)
let layers_of_spans sp (r : Rep.t) =
  let o = r.Rep.outcome in
  let committed = o.Driver.committed in
  let m = r.Rep.run_metrics and fin = r.Rep.metrics in
  let restarts = List.length r.Rep.restarts in
  let driver = Spans.summarize sp Spans.Driver_run in
  let ops = List.map (fun op -> (op, Spans.summarize sp (Spans.Op op))) reported_ops in
  let blocked_by =
    List.mapi
      (fun i reason ->
        let count ops = List.fold_left (fun acc (_, s) -> acc + s.Spans.by_reason.(i)) 0 ops in
        (reason, count ops))
      Spans.reason_names
  in
  let blocked = List.fold_left (fun acc (_, n) -> acc + n) 0 blocked_by in
  [
    metric "driver.sched_events_per_txn" "count/txn" (per o.Driver.sched_events committed);
    metric "driver.rounds" "count" (float_of_int o.Driver.rounds);
    metric "driver.restarts_per_txn" "count/txn" (per o.Driver.deadlock_aborts committed);
    metric "driver.self_s" "s" driver.Spans.self_s;
  ]
  @ List.concat_map
      (fun (op, (s : Spans.stats)) ->
        let name field = Printf.sprintf "cluster.%s.%s" (Spans.op_name op) field in
        [
          metric (name "calls") "count" (float_of_int s.Spans.calls);
          metric (name "self_s") "s" s.Spans.self_s;
          metric (name "wall_us_p50") "us" (Spans.quantile s.Spans.durations 0.5 *. 1e6);
          metric (name "wall_us_p99") "us" (Spans.quantile s.Spans.durations 0.99 *. 1e6);
          metric (name "minor_words_per_call") "words"
            (ratio s.Spans.minor_words (float_of_int s.Spans.calls));
          metric (name "would_block_ratio") "ratio" (per s.Spans.blocked s.Spans.calls);
        ])
      ops
  @ List.map
      (fun (reason, n) ->
        metric (Printf.sprintf "cluster.blocked.%s_share" reason) "ratio" (per n blocked))
      blocked_by
  @ [
      metric "buffer_pool.hit_ratio" "ratio"
        (per m.Metrics.cache_hits (m.Metrics.cache_hits + m.Metrics.cache_misses));
      metric "buffer_pool.disk_reads_per_txn" "count/txn" (per m.Metrics.page_disk_reads committed);
      metric "buffer_pool.disk_writes_per_txn" "count/txn"
        (per m.Metrics.page_disk_writes committed);
      metric "buffer_pool.pages_shipped_per_txn" "count/txn"
        (per m.Metrics.pages_shipped committed);
      metric "lock.local_requests" "count" (float_of_int m.Metrics.lock_requests_local);
      metric "lock.remote_requests" "count" (float_of_int m.Metrics.lock_requests_remote);
      metric "lock.local_ratio" "ratio"
        (per m.Metrics.lock_requests_local
           (m.Metrics.lock_requests_local + m.Metrics.lock_requests_remote));
      metric "lock.callbacks" "count" (float_of_int m.Metrics.callbacks_sent);
      metric "log_manager.appends_per_txn" "count/txn" (per m.Metrics.log_appends committed);
      metric "log_manager.bytes_per_txn" "bytes/txn" (per m.Metrics.log_bytes committed);
      metric "log_manager.forces_per_txn" "count/txn" (per m.Metrics.log_forces committed);
      metric "group_commit.batches" "count" (float_of_int m.Metrics.commit_batches);
      metric "group_commit.mean_batch" "count"
        (per m.Metrics.batched_commits m.Metrics.commit_batches);
      metric "wire.messages_per_txn" "count/txn" (per m.Metrics.messages_sent committed);
      metric "wire.bytes_per_txn" "bytes/txn" (per m.Metrics.message_bytes committed);
      metric "wire.commit_messages" "count" (float_of_int fin.Metrics.commit_messages);
      metric "recovery.restarts" "count" (float_of_int restarts);
      metric "recovery.records_scanned_per_restart" "count"
        (per fin.Metrics.recovery_log_records_scanned restarts);
      metric "recovery.pages_redone" "count" (float_of_int fin.Metrics.recovery_pages_redone);
      metric "recovery.messages" "count" (float_of_int fin.Metrics.recovery_messages);
      metric "recovery.page_transfers" "count" (float_of_int fin.Metrics.recovery_page_transfers);
    ]
  @ List.map
      (fun phase ->
        let total = Option.value (List.assoc_opt phase r.Rep.recovery_phases) ~default:0. in
        metric (Printf.sprintf "recovery.sim_%s_ms" phase) "ms"
          (ratio total (float_of_int restarts) *. 1e3))
      recovery_phases

(* Mean simulated commit-latency components of the recorder-traced run. *)
let critical_path (r : Rep.t) =
  let cp = Critical_path.analyze r.Rep.events in
  let n = List.length cp.Critical_path.txns in
  List.map
    (fun c ->
      let total =
        List.fold_left
          (fun acc tl -> acc +. Critical_path.component_value tl.Critical_path.parts c)
          0. cp.Critical_path.txns
      in
      metric (Printf.sprintf "critical_path.%s_ms" c) "ms" (ratio total (float_of_int n) *. 1e3))
    Critical_path.component_names

let layers_of_plain (r : Rep.t) =
  let committed = r.Rep.outcome.Driver.committed in
  let g = r.Rep.run_gc in
  [
    metric "gc.minor_collections" "count" (float_of_int g.Rep.minor_collections);
    metric "gc.major_collections" "count" (float_of_int g.Rep.major_collections);
    metric "gc.promoted_words_per_txn" "words"
      (ratio g.Rep.promoted_words (float_of_int committed));
    metric "setup.cluster_s" "s" r.Rep.setup_cluster_s;
    metric "setup.scripts_s" "s" r.Rep.setup_scripts_s;
  ]

(* The ranked-layer table: self time of every layer of one span-traced
   repetition, as a share of the repetition's traced wall time. *)
let print_layer_table ~workload ~overhead sp =
  let rows =
    List.filter_map
      (fun layer ->
        let s = Spans.summarize sp layer in
        if s.Spans.calls = 0 then None else Some (Spans.layer_name layer, s))
      Spans.layers
  in
  let total = List.fold_left (fun acc (_, s) -> acc +. s.Spans.self_s) 0. rows in
  let rows = List.sort (fun (_, a) (_, b) -> Float.compare b.Spans.self_s a.Spans.self_s) rows in
  Printf.printf "\nlayers of %s ranked by wall-time share (one span-traced repetition)\n" workload;
  Printf.printf "%-22s %10s %10s %7s %10s %10s %8s\n" "layer" "calls" "self s" "share" "p50 us"
    "p99 us" "blocked";
  List.iter
    (fun (name, (s : Spans.stats)) ->
      Printf.printf "%-22s %10d %10.4f %6.1f%% %10.2f %10.2f %7.1f%%\n" name s.Spans.calls
        s.Spans.self_s
        (100. *. ratio s.Spans.self_s total)
        (Spans.quantile s.Spans.durations 0.5 *. 1e6)
        (Spans.quantile s.Spans.durations 0.99 *. 1e6)
        (100. *. per s.Spans.blocked s.Spans.calls))
    rows;
  Printf.printf "trace.overhead_ratio %.4f (span-traced / untraced Driver.run wall time - 1)\n"
    overhead

(* The correctness gate.  Each repetition is checked as it finishes and
   then dropped, so repetitions never pile up in the heap: every error,
   and every fingerprint that differs from the first of its seed. *)
type gate = {
  mutable fingerprints : (int * string) list;  (** first fingerprint per input seed *)
  mutable errors : string list;
  mutable attempted : int;
  mutable reps : int;
}

let check gate ~seed (r : Rep.t) =
  gate.attempted <- gate.attempted + r.Rep.scripts;
  gate.reps <- gate.reps + 1;
  gate.errors <- gate.errors @ r.Rep.errors;
  match List.assoc_opt seed gate.fingerprints with
  | None -> gate.fingerprints <- gate.fingerprints @ [ (seed, r.Rep.fingerprint) ]
  | Some f when f = r.Rep.fingerprint -> ()
  | Some f ->
    gate.errors <-
      gate.errors
      @ [ Printf.sprintf "seed %d: simulated run diverged: %s <> %s" seed r.Rep.fingerprint f ]

(* ---- output ---- *)

let json_number v = Printf.sprintf "%.17g" v

let print_result ~correct ~attempted ~failed metrics =
  let fields =
    List.map
      (fun m ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (json_number m.value) m.unit_)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" correct
    attempted failed (String.concat ", " fields)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 20 and trace = ref 0 in
  let usage = "main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME scale-read | commit-batch | restart-load");
      ("--seed", Arg.Set_int seed, "N workload seed (default 1)");
      ("--seconds", Arg.Set_int seconds, "S measuring time (default 20)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let w =
    match Workloads.find !workload with
    | Some w -> w
    | None ->
      Printf.eprintf "unknown workload %S (have: %s)\n" !workload
        (String.concat ", " (List.map (fun w -> w.Workloads.name) Workloads.all));
      exit 2
  in
  let gate = { fingerprints = []; errors = []; attempted = 0; reps = 0 } in
  let run ?(input = 0) mode =
    let seed = input_seed !seed input in
    let r = Rep.run mode w ~seed in
    check gate ~seed r;
    r
  in
  let metrics =
    match !trace with
    | 0 ->
      let runs =
        repeat ~seconds:!seconds ~cycle:inputs (fun i ->
            end_to_end (run ~input:(i mod inputs) Rep.Plain))
      in
      medians runs @ [ peak_heap_mb () ]
    | 1 ->
      let critical = critical_path (run Rep.Recorder) in
      let sp = Spans.create () in
      let pairs =
        repeat ~seconds:!seconds ~cycle:2 (fun _ ->
            let plain = run Rep.Plain in
            Spans.clear sp;
            let traced = run (Rep.Spans sp) in
            (plain.Rep.run_s, traced.Rep.run_s, layers_of_spans sp traced, layers_of_plain plain))
      in
      let overhead =
        ratio
          (median (List.map (fun (_, t, _, _) -> t) pairs))
          (median (List.map (fun (p, _, _, _) -> p) pairs))
        -. 1.
      in
      print_layer_table ~workload:w.Workloads.name ~overhead sp;
      if not (Sys.file_exists spans_dir) then Sys.mkdir spans_dir 0o755;
      Spans.write_tsv sp
        (Filename.concat spans_dir
           (Printf.sprintf "spans-%s-seed%d.tsv" w.Workloads.name (input_seed !seed 0)));
      medians (List.map (fun (_, _, l, _) -> l) pairs)
      @ critical
      @ medians (List.map (fun (_, _, _, l) -> l) pairs)
      @ [ metric "trace.overhead_ratio" "ratio" overhead ]
    | n ->
      Printf.eprintf "--trace takes 0 or 1, not %d\n" n;
      exit 2
  in
  let errors =
    gate.errors
    @ List.filter_map
        (fun m ->
          if Float.is_finite m.value then None else Some (Printf.sprintf "%s is not finite" m.name))
        metrics
  in
  List.iter (Printf.eprintf "error: %s\n") errors;
  Printf.printf "\n%s seed %d: %d repetitions\n" w.Workloads.name !seed gate.reps;
  List.iter (fun (s, f) -> Printf.printf "  input seed %d fingerprint %s\n" s f) gate.fingerprints;
  List.iter (fun m -> Printf.printf "  %-44s %16.6f %s\n" m.name m.value m.unit_) metrics;
  let metrics =
    List.map (fun m -> if Float.is_finite m.value then m else { m with value = 0. }) metrics
  in
  let correct = errors = [] in
  print_result ~correct ~attempted:gate.attempted ~failed:(List.length errors) metrics;
  exit (if correct then 0 else 1)
