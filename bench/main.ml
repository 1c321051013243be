(* Wall-clock benchmarks of the simulator itself, and the guards that
   nothing else runs.  Every simulated number (the experiment tables,
   E1..E15) comes from `cblsim experiment [ID] [--quick] [--json]`,
   whose output ci.sh pins by hash.

   - Bechamel micro-benchmarks of the hot paths (record codec, log
     append+force, PSN-guarded redo, NodePSNList merge, the commit
     path, LRU victim choice, a per-node lock listing) and the allocation probe of the record
     codec and of the log scans (full decode, heads only, and a re-scan
     of frames an earlier scan verified).
   - The tracing overhead: wall cost of an enabled trace.
   - The early-lock-release guard: lock-hold duration, elr off vs on;
     writes BENCH_ELR.json.

   Run with:  dune exec bench/main.exe             (micro + tracing)
              dune exec bench/main.exe -- micro    (bechamel only)
              dune exec bench/main.exe -- json     (tracing + elr)
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
module Log_device = Repro_storage.Log_device
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

let sample_log_records = 1000

(* A log of [sample_log_records] copies of [sample_update]. *)
let sample_log () =
  let env = Repro_sim.Env.create Config.instant in
  let log = Log_manager.create env (Repro_sim.Metrics.create ()) () in
  for _ = 1 to sample_log_records do
    ignore (Log_manager.append log sample_update)
  done;
  log

let count_head n _ ~txn:_ ~kind:_ ~owner:_ ~slot:_ ~psn_before:_ = n + 1

(* Flipping one byte twice leaves the log's bytes as they were but
   empties its verified range, so the next scan is a first pass that
   checks every frame in full. *)
let unverify log =
  let dev = Log_manager.device log in
  Log_device.scribble dev ~pos:0;
  Log_device.scribble dev ~pos:0

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
    (* the recovery scan, first pass: frame check, CRC and decode of
       every record *)
    Test.make ~name:"log-fold (1k records)"
      (Staged.stage
         (let log = sample_log () in
          fun () ->
            unverify log;
            Log_manager.fold log ~from:Lsn.nil ~init:0 (fun n _ _ -> n + 1)));
    (* the same scan reading only each record's head: analysis and
       NodePSNList building *)
    Test.make ~name:"log-fold-heads (1k records)"
      (Staged.stage
         (let log = sample_log () in
          fun () ->
            unverify log;
            Log_manager.fold_heads log ~from:Lsn.nil ~init:0 count_head));
    (* the heads scan again over frames the last pass verified: the
       later recovery passes skip the CRC and the structural check
       (per run over 1k records, so µs/run reads as ns/record) *)
    Test.make ~name:"log-fold-heads re-scan (1k records)"
      (Staged.stage
         (let log = sample_log () in
          fun () -> Log_manager.fold_heads log ~from:Lsn.nil ~init:0 count_head));
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
    (* lock reconstruction's per-peer listing: one holder's locks in an
       owner table of 256 pages, each S-locked by 4 of 64 holders; the
       holder index visits the holder's 16 locks, not the 1,024 *)
    Test.make ~name:"lock listing (64 holders × 256 pages)"
      (Staged.stage
         (let g = Repro_lock.Global_locks.create ~owner:0 in
          for slot = 0 to 255 do
            for k = 0 to 3 do
              Repro_lock.Global_locks.grant g ~node:((slot + (16 * k)) land 63)
                ~pid:(Page_id.make ~owner:0 ~slot) ~mode:Repro_lock.Mode.S
            done
          done;
          let node = ref 0 in
          fun () ->
            node := (!node + 1) land 63;
            ignore (Repro_lock.Global_locks.locks_held_by_node g ~node:!node)));
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
    ((fresh -. shared) /. shared *. 100.);
  (* Per scanned record, over one log: the full decode builds every
     record; the heads-only scan builds none, and its 2 words left are
     the box of [Metrics.busy_seconds], a float field of a mixed record,
     that each scan charge rewrites.  A re-scan of frames the last
     pass verified skips their check and must allocate no more.  Redo's
     read of a remembered location (of a verified frame, as after the
     NodePSNList scan) builds only the record's op (here two 32-byte
     strings). *)
  let log = sample_log () in
  let per_record f = words_per_op f /. float_of_int sample_log_records in
  let full =
    per_record (fun () ->
        unverify log;
        ignore (Log_manager.fold log ~from:Lsn.nil ~init:0 (fun n _ _ -> n + 1)))
  in
  let heads =
    per_record (fun () ->
        unverify log;
        ignore (Log_manager.fold_heads log ~from:Lsn.nil ~init:0 count_head))
  in
  let rescan =
    per_record (fun () -> ignore (Log_manager.fold_heads log ~from:Lsn.nil ~init:0 count_head))
  in
  let lsns =
    Array.of_list
      (List.rev (Log_manager.fold log ~from:Lsn.nil ~init:[] (fun acc lsn _ -> lsn :: acc)))
  in
  let pid = Option.get (Record.page_of sample_update) in
  let psn_before = Option.get (Record.psn_before_of sample_update) in
  let redo =
    per_record (fun () ->
        Array.iter (fun lsn -> ignore (Log_manager.read_op log lsn ~pid ~psn_before)) lsns)
  in
  List.iter
    (fun (row, words) -> Format.printf "%-40s %5.1f minor words/record@." row words)
    [
      ("log scan, full decode:", full);
      ("log scan, heads only:", heads);
      ("log scan, re-scan of verified frames:", rescan);
      ("redo read at a remembered location:", redo);
    ]

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
    bench_tracing_overhead ();
    bench_elr ()
  | "tracing" -> bench_tracing_overhead ()
  | "elr" -> bench_elr ()
  | _ ->
    run_micro ();
    bench_tracing_overhead ()
