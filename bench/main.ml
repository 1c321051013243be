(* Wall-clock benchmarks of the simulator itself, and the guards that
   nothing else runs.  Every simulated number (the experiment tables,
   E1..E15) comes from `cblsim experiment [ID] [--quick] [--json]`,
   whose output ci.sh pins by hash.

   - Bechamel micro-benchmarks of the hot paths (record codec, log
     append+force, PSN-guarded redo, NodePSNList merge, the commit
     path, LRU victim choice) and the record codec's allocation probe.
   - The lint timing guard: exits 1 when a cbl-lint phase is over its
     wall budget; writes BENCH_LINT.json.
   - The tracing overhead: wall cost of an enabled trace.
   - The early-lock-release guard: lock-hold duration, elr off vs on;
     writes BENCH_ELR.json.

   Run with:  dune exec bench/main.exe             (micro + tracing)
              dune exec bench/main.exe -- micro    (bechamel only)
              dune exec bench/main.exe -- json     (lint + tracing + elr)
              dune exec bench/main.exe -- lint     (lint timing guard only)
              dune exec bench/main.exe -- tracing  (tracing overhead)
              dune exec bench/main.exe -- elr      (lock-hold duration, elr off/on) *)

module Experiments = Repro_experiments.Experiments
module Report = Repro_experiments.Report
module Cluster = Repro_cbl.Cluster
module Codec = Repro_util.Codec
module Crc32 = Repro_util.Crc32
module Record = Repro_wal.Record
module Log_manager = Repro_wal.Log_manager
module Lsn = Repro_wal.Lsn
module Page = Repro_storage.Page
module Page_id = Repro_storage.Page_id
module Redo = Repro_aries.Redo
module Node_psn_list = Repro_cbl.Node_psn_list
module Config = Repro_sim.Config
module Buffer_pool = Repro_buffer.Buffer_pool
open Bechamel
open Toolkit

let write_json file json =
  let oc = open_out file in
  output_string oc (Repro_obs.Json.to_string_pretty json);
  output_char oc '\n';
  close_out oc

(* ---- lint timing guard ----

   cbl-lint gates every CI run before the tests, so it must stay cheap
   even now that it builds a whole-repo call graph.  Three phases are
   timed separately — parse (compiler-libs over every file), summaries
   (phase-1 effect extraction), and the full run (parse +
   summaries + call graph + fixpoint + all rules) — each against its
   own wall budget; any phase over budget exits 1.  The timings go to
   BENCH_LINT.json.  Run from the repo root; skipped elsewhere (no
   tree to lint). *)

let lint_budget_seconds = 2.0
let lint_parse_budget_seconds = 1.0
let lint_summaries_budget_seconds = 1.0

let bench_lint () =
  if not (Sys.file_exists "lib" && Sys.file_exists "bin") then
    Format.printf "lint timing: not at the repo root, skipped@."
  else begin
    let paths = [ "lib"; "bin"; "bench"; "test" ] in
    let time f =
      let t0 = Sys.time () in
      let r = f () in
      (r, max 1e-6 (Sys.time () -. t0))
    in
    let (_, sources, _), parse_s =
      time (fun () -> Repro_lint.Lint.parse_tree ~root:"." ~paths)
    in
    let summaries, summaries_s = time (fun () -> Repro_lint.Summary.of_sources sources) in
    let result, full_s =
      time (fun () ->
          Repro_lint.Lint.run ~clock:Sys.time ~root:"." ~paths ~rules:Repro_lint.Rules.all ())
    in
    let phases =
      [
        ("parse", parse_s, lint_parse_budget_seconds);
        ("summaries", summaries_s, lint_summaries_budget_seconds);
        ("full", full_s, lint_budget_seconds);
      ]
    in
    let ok = List.for_all (fun (_, s, budget) -> s <= budget) phases in
    let module J = Repro_obs.Json in
    let json =
      J.Obj
        [
          ("id", J.Str "lint_timing");
          ("files_scanned", J.Int result.Repro_lint.Lint.files_scanned);
          ("functions_summarized", J.Int (List.fold_left
               (fun acc (f : Repro_lint.Summary.file) -> acc + List.length f.Repro_lint.Summary.fns)
               0 summaries));
          ("seconds", J.Float full_s);
          ("budget_seconds", J.Float lint_budget_seconds);
          ("ok", J.Bool ok);
          ("phase_seconds", J.Obj (List.map (fun (phase, s, _) -> (phase, J.Float s)) phases));
          ( "rule_seconds",
            J.Obj
              (List.map (fun (id, s) -> (id, J.Float s)) result.Repro_lint.Lint.rule_seconds) );
        ]
    in
    write_json "BENCH_LINT.json" json;
    List.iter
      (fun (phase, s, budget) ->
        Format.printf "lint timing: %-9s %.3fs (budget %.1fs, headroom %.1fx)@." phase s budget
          (budget /. s))
      phases;
    Format.printf "lint timing: %d files — wrote BENCH_LINT.json@."
      result.Repro_lint.Lint.files_scanned;
    if not ok then begin
      Format.printf "lint timing over budget: the lint gate would slow every CI run@.";
      exit 1
    end
  end

(* ---- tracing overhead ----

   The causal-tracing instrumentation sits on the hottest paths (every
   charge, message, lock and commit goes through the [Env.tracing]
   check; [Env.with_txn] swaps the recorder context around every
   transaction action).  That it is invisible to the simulation —
   traced and untraced runs bit-identical — is a test (test_obs, on
   this same E11 point among others).  What is left to measure is the
   wall-clock cost of an *enabled* trace: informational, since
   recording ~20 events per commit has a real price, paid only when
   tracing is requested. *)

let bench_tracing_overhead () =
  let reps = 5 in
  let run ~trace =
    let t0 = Sys.time () in
    for _ = 1 to reps do
      ignore (Experiments.group_commit_run ~trace ~quick:false (8, 20.))
    done;
    Sys.time () -. t0
  in
  ignore (run ~trace:false) (* warm-up: page allocation, minor heap *);
  let wall_off = run ~trace:false in
  let wall_on = run ~trace:true in
  Format.printf "tracing overhead: wall %+.0f%% when enabled (E11, max batch 8, 20 ms window)@."
    ((wall_on -. wall_off) /. wall_off *. 100.)

(* ---- early-lock-release lock-hold duration ----

   The whole point of elr is to stop a committing transaction from
   pinning its pages across the group-commit window: the lock-hold
   histogram (begin-of-first-lock to release, simulated seconds) must
   collapse when the release moves from post-force to batch-submit.
   Both runs come off the simulated clock, so the comparison is
   bit-deterministic.  E15's mpl-16 rows are the same two runs. *)

let bench_elr () =
  let clients = 16 in
  let run ~early_release =
    let cluster, outcome = Experiments.elr_run ~early_release ~clients () in
    let obs = Repro_sim.Env.obs (Cluster.env cluster) in
    let hist =
      match Repro_obs.Recorder.find_hist obs ~name:"lock_hold" ~node:0 with
      | Some h -> h
      | None -> failwith "bench elr: lock_hold histogram missing"
    in
    (outcome, hist)
  in
  let off, h_off = run ~early_release:false in
  let on, h_on = run ~early_release:true in
  let module H = Repro_obs.Log_hist in
  let module D = Repro_workload.Driver in
  let row label (o : D.outcome) h =
    [
      label;
      string_of_int (H.count h);
      Report.ms (H.mean h);
      Report.ms (H.quantile h 0.95);
      Report.ms o.D.latencies.Repro_util.Stats.p95;
      Report.f2 (float_of_int o.D.committed /. o.D.sim_seconds);
    ]
  in
  let cut = 1. -. (H.mean h_on /. H.mean h_off) in
  let report =
    {
      Report.id = "ELR";
      title = "Early lock release: lock-hold duration, elr off vs on (E15 workload, mpl 16)";
      claim =
        "releasing a committing transaction's page locks at batch-submit instead of after \
         the batch force collapses mean lock-hold duration — the batching window leaves \
         the lock footprint";
      header = [ "elr"; "holds"; "hold mean"; "hold p95"; "commit p95"; "txn/s (sim)" ];
      rows = [ row "off" off h_off; row "on" on h_on ];
      data = [];
      notes =
        [
          Printf.sprintf "mean lock-hold cut %.0f%% with early release on" (100. *. cut);
          "hold times and txn/s are simulated-clock readings: deterministic, any drift is a \
           behaviour change";
        ];
    }
  in
  write_json "BENCH_ELR.json" (Report.to_json report);
  Format.printf "elr lock-hold: mean %s off vs %s on (%.0f%% cut) — wrote BENCH_ELR.json@."
    (Report.ms (H.mean h_off)) (Report.ms (H.mean h_on)) (100. *. cut)

(* ---- bechamel: hot paths ---- *)

let sample_update =
  {
    Record.txn = 7;
    prev = 1234;
    body =
      Update
        {
          pid = Page_id.make ~owner:1 ~slot:9;
          psn_before = 41;
          op = Physical { off = 128; before = String.make 32 'a'; after = String.make 32 'b' };
        };
  }

let encode_update () = Codec.with_scratch (fun e -> Record.encode e sample_update)
let encoded_update = Bytes.to_string (encode_update ())

(* A pool of [n] clean frames, pages [0 .. n-1] of node 0. *)
let full_pool n =
  let pool = Buffer_pool.create ~capacity:n () in
  for i = 0 to n - 1 do
    ignore
      (Buffer_pool.install pool (Page.create ~id:(Page_id.make ~owner:0 ~slot:i) ~psn:0 ~size:64))
  done;
  pool

let micro_tests =
  [
    Test.make ~name:"record-encode" (Staged.stage encode_update);
    Test.make ~name:"record-decode"
      (Staged.stage (fun () -> Record.decode (Codec.decoder encoded_update)));
    Test.make ~name:"log-append+force"
      (Staged.stage
         (let env = Repro_sim.Env.create Config.instant in
          let log = Log_manager.create env (Repro_sim.Metrics.create ()) () in
          fun () ->
            let lsn = Log_manager.append log sample_update in
            Log_manager.force log ~upto:lsn));
    Test.make ~name:"crc32 (64 B)"
      (Staged.stage
         (let b = Bytes.init 64 (fun i -> Char.chr (i * 37 land 0xFF)) in
          fun () -> Crc32.bytes b ~pos:0 ~len:64));
    (* the recovery scan: frame check, CRC and decode of every record *)
    Test.make ~name:"log-fold (1k records)"
      (Staged.stage
         (let env = Repro_sim.Env.create Config.instant in
          let log = Log_manager.create env (Repro_sim.Metrics.create ()) () in
          for _ = 1 to 1000 do
            ignore (Log_manager.append log sample_update)
          done;
          fun () -> Log_manager.fold log ~from:Lsn.nil ~init:0 (fun n _ _ -> n + 1)));
    Test.make ~name:"redo-apply"
      (Staged.stage
         (let page = Page.create ~id:(Page_id.make ~owner:0 ~slot:0) ~psn:0 ~size:8192 in
          let op = Record.Delta { off = 0; delta = 1L } in
          fun () -> ignore (Redo.apply page ~psn_before:(Page.psn page) ~op)));
    Test.make ~name:"psn-list-merge"
      (Staged.stage
         (let runs =
            List.init 4 (fun node ->
                List.init 16 (fun i -> { Node_psn_list.node; psn = (i * 4) + node; lsn = i }))
          in
          fun () -> Node_psn_list.merge runs));
    Test.make ~name:"commit-path (1 node, 2 updates)"
      (Staged.stage
         (let cluster = Cluster.create ~nodes:1 Config.instant in
          let pages = Cluster.allocate_pages cluster ~owner:0 ~count:2 in
          fun () ->
            let t = Cluster.begin_txn cluster ~node:0 in
            List.iter (fun p -> Cluster.update_delta cluster ~txn:t ~pid:p ~off:0 1L) pages;
            Cluster.commit cluster ~txn:t));
    (* unbatched vs batched force: same 8 commits, 8 forces vs 1 *)
    Test.make ~name:"commit-8-txns-unbatched (8 forces)"
      (Staged.stage
         (let cluster = Cluster.create ~nodes:1 Config.instant in
          let pages = Cluster.allocate_pages cluster ~owner:0 ~count:8 in
          fun () ->
            List.iter
              (fun p ->
                let t = Cluster.begin_txn cluster ~node:0 in
                Cluster.update_delta cluster ~txn:t ~pid:p ~off:0 1L;
                Cluster.commit cluster ~txn:t)
              pages));
    Test.make ~name:"commit-8-txns-batched (1 shared force)"
      (Staged.stage
         (let config = Config.with_group_commit Config.instant ~window_ms:10. ~max_batch:8 in
          let cluster = Cluster.create ~nodes:1 config in
          let pages = Cluster.allocate_pages cluster ~owner:0 ~count:8 in
          fun () ->
            let txns =
              List.map
                (fun p ->
                  let t = Cluster.begin_txn cluster ~node:0 in
                  Cluster.update_delta cluster ~txn:t ~pid:p ~off:0 1L;
                  t)
                pages
            in
            (* the 8th submit fills the batch and triggers the one force *)
            List.iter (fun t -> Cluster.commit cluster ~txn:t) txns;
            List.iter (fun t -> ignore (Cluster.commit_outcome cluster ~txn:t)) txns));
    Test.make ~name:"log-8-appends+8-forces"
      (Staged.stage
         (let env = Repro_sim.Env.create Config.instant in
          let log = Log_manager.create env (Repro_sim.Metrics.create ()) () in
          fun () ->
            for _ = 1 to 8 do
              let lsn = Log_manager.append log sample_update in
              Log_manager.force log ~upto:lsn
            done));
    Test.make ~name:"log-8-appends+1-shared-force"
      (Staged.stage
         (let env = Repro_sim.Env.create Config.instant in
          let log = Log_manager.create env (Repro_sim.Metrics.create ()) () in
          fun () ->
            let last = ref Lsn.nil in
            for _ = 1 to 8 do
              last := Log_manager.append log sample_update
            done;
            Log_manager.force_shared log ~upto:!last ~sharers:8));
    (* LRU victim choice at a large pool, then a touch of the victim so
       the next call picks the next-oldest frame: O(1) per eviction
       (the recency list is walked from its LRU end) *)
    Test.make ~name:"evict-lru (4096 frames)"
      (Staged.stage
         (let pool = full_pool 4096 in
          fun () ->
            match Buffer_pool.choose_victim pool with
            | Some victim -> ignore (Buffer_pool.find pool (Page.id victim.Buffer_pool.page))
            | None -> ()));
    (* a cache hit: lookup plus the move to the MRU end; every operation
       of a cache-resident workload pays it *)
    Test.make ~name:"pool hit (64 frames)"
      (Staged.stage
         (let pool = full_pool 64 in
          let pids = Array.init 64 (fun i -> Page_id.make ~owner:0 ~slot:i) in
          let i = ref 0 in
          fun () ->
            i := (!i + 37) land 63;
            ignore (Buffer_pool.find pool pids.(!i))));
  ]

(* Allocation of the record codec: the shared scratch buffer means a
   steady-state encode allocates only the result string, not a fresh
   Buffer per call.  The fresh-encoder row replays the same payload
   through [Codec.encoder ()] per call — the pre-scratch code path —
   so the difference is exactly what the shared scratch saves. *)
let measure_codec_alloc () =
  let n = 10_000 in
  let words_per_op f =
    f () (* warm: first call may grow the scratch *);
    let before = Gc.minor_words () in
    for _ = 1 to n do
      f ()
    done;
    (Gc.minor_words () -. before) /. float_of_int n
  in
  let shared = words_per_op (fun () -> ignore (encode_update ())) in
  let fresh =
    words_per_op (fun () ->
        let e = Codec.encoder () in
        Codec.bytes e encoded_update;
        ignore (Codec.to_string e))
  in
  Format.printf "record-encode (shared scratch): %5.1f minor words/op@." shared;
  Format.printf "same payload, fresh Buffer/op:  %5.1f minor words/op (%.0f%% more allocation)@."
    fresh
    ((fresh -. shared) /. shared *. 100.)

let run_bechamel tests =
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) () in
  let raw = Benchmark.all cfg instances (Test.make_grouped ~name:"" ~fmt:"%s%s" tests) in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols ->
      let ns =
        match Analyze.OLS.estimates ols with Some (e :: _) -> e | Some [] | None -> nan
      in
      rows := (name, ns) :: !rows)
    results;
  List.iter
    (fun (name, ns) ->
      let value, unit_ =
        if ns > 1e9 then (ns /. 1e9, "s") else if ns > 1e6 then (ns /. 1e6, "ms")
        else if ns > 1e3 then (ns /. 1e3, "µs")
        else (ns, "ns")
      in
      Format.printf "%-40s %10.2f %s/run@." name value unit_)
    (List.sort compare !rows)

let run_micro () =
  Format.printf "@.#### Bechamel: hot paths (wall clock) ####@.";
  run_bechamel micro_tests;
  Format.printf "@.#### Allocation: record codec ####@.";
  measure_codec_alloc ()

let () =
  let what = if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" in
  match what with
  | "micro" -> run_micro ()
  | "json" ->
    bench_lint ();
    bench_tracing_overhead ();
    bench_elr ()
  | "lint" -> bench_lint ()
  | "tracing" -> bench_tracing_overhead ()
  | "elr" -> bench_elr ()
  | _ ->
    run_micro ();
    bench_tracing_overhead ()
