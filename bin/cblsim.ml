(* cblsim — drive the client-based-logging simulator from the shell.

   Subcommands:
     cblsim experiment [IDS...] [--quick] [--json]   regenerate experiment tables
     cblsim demo [options] [--json]                  run a workload, print metrics
     cblsim trace [options]                          run traced, dump events as JSONL
     cblsim stress [--runs N] [--start S]            randomized crash/verify/audit runs
     cblsim scale [--nodes N,...] [--profile P]      big-cluster scale sweep -> BENCH_SCALE.json
     cblsim audit FILE                               check protocol invariants on a trace *)

module Cluster = Repro_cbl.Cluster
module Engine = Repro_workload.Engine
module Driver = Repro_workload.Driver
module Generators = Repro_workload.Generators
module Experiments = Repro_experiments.Experiments
module Report = Repro_experiments.Report
module Spec = Repro_experiments.Spec
module Metrics = Repro_sim.Metrics
module Config = Repro_sim.Config
module Rng = Repro_util.Rng
module Json = Repro_obs.Json
module Event = Repro_obs.Event
module Recorder = Repro_obs.Recorder
module Audit = Repro_obs.Audit
open Cmdliner

(* ---- experiment ---- *)

let experiment_cmd =
  let experiment =
    let parse id =
      match Experiments.by_id id with
      | Some spec -> Ok spec
      | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown experiment %S (have: %s)" id
               (String.concat ", " Experiments.ids)))
    in
    Arg.conv (parse, fun ppf spec -> Format.pp_print_string ppf (Spec.id spec))
  in
  let specs =
    Arg.(value & pos_all experiment [] & info [] ~docv:"ID" ~doc:"Experiment ids (default: all).")
  in
  let quick =
    Arg.(value & flag & info [ "q"; "quick" ] ~doc:"Shrunken workloads for a fast pass.")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the reports as a JSON array on stdout.")
  in
  let run quick json specs =
    let specs = match specs with [] -> Experiments.all | specs -> specs in
    let results = List.map (Spec.run ~quick) specs in
    let reports = List.map fst results in
    if json then
      print_endline (Json.to_string_pretty (Json.List (List.map Report.to_json reports)))
    else List.iter (Format.printf "%a" Report.render) reports;
    match Spec.failed (List.concat_map snd results) with
    | [] -> ()
    | failed ->
      List.iter
        (fun (v : Spec.verdict) ->
          Format.eprintf "%s: claim does not hold: %s@." v.experiment v.claim)
        failed;
      exit 1
  in
  Cmd.v
    (Cmd.info "experiment" ~doc:"Regenerate the claim-derived experiment tables (see DESIGN.md)"
       ~exits:(Cmd.Exit.info 1 ~doc:"if a judged paper claim does not hold." :: Cmd.Exit.defaults))
    Term.(const run $ quick $ json $ specs)

(* ---- demo and trace: one partitioned workload ---- *)

let workload_term ~txns =
  let nodes = Arg.(value & opt int 4 & info [ "nodes" ] ~doc:"Cluster size.") in
  let owners =
    Arg.(value & opt (list int) [ 0; 2 ] & info [ "owners" ] ~doc:"Nodes that own databases.")
  in
  let pages = Arg.(value & opt int 24 & info [ "pages" ] ~doc:"Pages per owner.") in
  let txns =
    Arg.(value & opt int txns & info [ "txns" ] ~doc:"Transactions per client node.")
  in
  let remote =
    Arg.(value & opt float 0.3 & info [ "remote" ] ~doc:"Remote-access fraction (0..1).")
  in
  let theta = Arg.(value & opt float 0.0 & info [ "theta" ] ~doc:"Zipf skew (0 = uniform).") in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Deterministic seed.") in
  let crash_at =
    Arg.(
      value
      & opt (some (pair ~sep:'@' int int)) None
      & info [ "crash" ] ~docv:"NODE@ROUND" ~doc:"Crash NODE at ROUND.")
  in
  let recover_at =
    Arg.(value & opt (some int) None & info [ "recover" ] ~docv:"ROUND" ~doc:"Recovery round.")
  in
  let group_commit =
    Arg.(
      value & flag
      & info [ "group-commit" ]
          ~doc:"Batch commits: one shared log force per batch (10 ms window, at most 8 commits).")
  in
  let elr =
    Arg.(
      value & flag
      & info [ "elr" ]
          ~doc:
            "Early lock release: a committing transaction's locks go when it joins its batch.  \
             Only effective with $(b,--group-commit).")
  in
  (* A fresh CBL cluster runs a partitioned workload over the owners'
     pages, one client per node, with the optional crash (recovered at
     [recover_at], else 20 rounds later). *)
  let run nodes owners pages txns remote theta seed crash_at recover_at group_commit elr ~trace =
    let config =
      if group_commit then Config.with_group_commit Config.default ~window_ms:10. ~max_batch:8
      else Config.default
    in
    let cluster = Cluster.create ~trace ~nodes (Config.with_early_release config elr) in
    let owners = if owners = [] then [ 0 ] else owners in
    let pages_by_owner =
      List.map (fun o -> (o, Cluster.allocate_pages cluster ~owner:o ~count:pages)) owners
    in
    let engine = Engine.of_cluster cluster in
    let rng = Rng.create seed in
    let scripts =
      Generators.partitioned rng ~pages_by_owner
        ~clients:(List.init nodes (fun i -> i))
        ~txns_per_client:txns
        ~mix:{ Generators.default_mix with remote_fraction = remote; theta }
    in
    let events =
      match (crash_at, recover_at) with
      | Some (node, round), Some at ->
        [ (round, Driver.Crash node); (at, Driver.Recover [ node ]) ]
      | Some (node, round), None ->
        [ (round, Driver.Crash node); (round + 20, Driver.Recover [ node ]) ]
      | None, _ -> []
    in
    (cluster, Driver.run engine ~events scripts)
  in
  Term.(
    const run $ nodes $ owners $ pages $ txns $ remote $ theta $ seed $ crash_at $ recover_at
    $ group_commit $ elr)

let demo run_workload json =
  let cluster, outcome = run_workload ~trace:false in
  let oracle = Driver.verify outcome in
  if json then begin
    let obs = Repro_sim.Env.obs (Cluster.env cluster) in
    let out =
      Json.Obj
        [
          ("config", Config.to_json (Repro_sim.Env.config (Cluster.env cluster)));
          ( "outcome",
            Json.Obj
              [
                ("committed", Json.Int outcome.Driver.committed);
                ("voluntary_aborts", Json.Int outcome.Driver.voluntary_aborts);
                ("deadlock_aborts", Json.Int outcome.Driver.deadlock_aborts);
                ("stuck", Json.Int outcome.Driver.stuck);
                ("rounds", Json.Int outcome.Driver.rounds);
                ("sim_seconds", Json.Float outcome.Driver.sim_seconds);
              ] );
          ("oracle", Json.Str (match oracle with Ok () -> "ok" | Error _ -> "failed"));
          ( "metrics",
            Json.Obj
              [
                ("cluster", Metrics.to_json (Cluster.global_metrics cluster));
                ( "nodes",
                  Json.List
                    (List.init (Cluster.node_count cluster) (fun i ->
                         Metrics.to_json (Cluster.node_metrics cluster i))) );
              ] );
          (* latency histograms: commit_latency / txn_duration / lock_wait /
             recovery_duration, per node and cluster-wide, with p50/p95/p99 *)
          ("latency", Recorder.histograms_json obs);
        ]
    in
    print_endline (Json.to_string_pretty out);
    if oracle <> Ok () then exit 1
  end
  else begin
    Format.printf "%a@.@." Driver.pp_outcome outcome;
    (match oracle with
    | Ok () -> Format.printf "durability oracle: OK@.@."
    | Error errs ->
      Format.printf "durability oracle: FAILED@.";
      List.iter print_endline errs;
      exit 1);
    (* zeros matter here: cbl's claim is commit_messages = 0 and
       log_records_shipped = 0, so print them rather than eliding *)
    Format.printf "-- global counters --@.%a@."
      (Metrics.pp_with ~show_zeros:true)
      (Cluster.global_metrics cluster);
    (match
       Recorder.find_hist (Repro_sim.Env.obs (Cluster.env cluster)) ~name:"commit_latency"
         ~node:(-1)
     with
    | Some h ->
      Format.printf "@.-- commit latency (cluster) --@.%a@." Repro_obs.Log_hist.pp h
    | None -> ())
  end

let demo_cmd =
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Emit one JSON object (config, outcome, metrics, latency histograms) instead of \
             the human-readable report.")
  in
  Cmd.v
    (Cmd.info "demo" ~doc:"Run a workload on a CBL cluster and print its metrics")
    Term.(const demo $ workload_term ~txns:25 $ json)

(* ---- trace ---- *)

let trace_run run_workload kinds node_filter txn_filter since until limit render flame =
  (match List.filter (fun k -> Event.kind_of_name k = None) kinds with
  | [] -> ()
  | bad ->
    Fmt.failwith "unknown event kind(s) %s; have: %s" (String.concat ", " bad)
      (String.concat ", " (List.map Event.kind_name Event.all_kinds)));
  let cluster, _outcome = run_workload ~trace:true in
  let obs = Repro_sim.Env.obs (Cluster.env cluster) in
  if flame then
    (* Fold the whole trace into per-txn critical-path components and
       emit folded-stack lines (pipe into any flamegraph renderer). *)
    List.iter print_endline
      (Repro_obs.Critical_path.folded_stacks
         (Repro_obs.Critical_path.analyze (Recorder.events obs)))
  else begin
    let wanted = List.filter_map Event.kind_of_name kinds in
    (* The [trace.dropped] summary of an overflowed ring is no event of
       the run: it marks the output as a suffix, so no filter removes
       it and it stays last. *)
    let dropped, events =
      List.partition (fun (e : Event.t) -> e.Event.kind = Event.Trace_dropped) (Recorder.events obs)
    in
    let selected =
      List.filter
        (fun (e : Event.t) ->
          (wanted = [] || List.mem e.Event.kind wanted)
          && (match node_filter with None -> true | Some n -> e.Event.node = n)
          && (match txn_filter with None -> true | Some id -> Event.txn_of e = id)
          && (match since with None -> true | Some t -> e.Event.time >= t)
          && match until with None -> true | Some t -> e.Event.time <= t)
        events
    in
    let selected =
      if limit <= 0 then selected
      else
        let n = List.length selected in
        if n <= limit then selected else List.filteri (fun i _ -> i >= n - limit) selected
    in
    List.iter
      (fun e ->
        print_endline (if render then Event.render e else Json.to_string (Event.to_json e)))
      (selected @ dropped);
    if Recorder.dropped obs > 0 then
      Format.eprintf "note: ring buffer dropped %d older events@." (Recorder.dropped obs)
  end

let trace_cmd =
  let kinds =
    Arg.(
      value & opt (list string) []
      & info [ "kind" ] ~docv:"KINDS"
          ~doc:
            "Only these event kinds (comma-separated dotted names, e.g. \
             $(b,msg.send,lock.callback,recovery.phase)).")
  in
  let node_filter =
    Arg.(value & opt (some int) None & info [ "node" ] ~doc:"Only events at this node.")
  in
  let txn_filter =
    Arg.(
      value
      & opt (some int) None
      & info [ "txn" ] ~docv:"ID"
          ~doc:
            "Only events causally attributed to transaction $(docv) (the stamped trace \
             context, including work other nodes performed on its behalf).")
  in
  let since =
    Arg.(
      value
      & opt (some float) None
      & info [ "since" ] ~docv:"T" ~doc:"Only events at simulated time >= $(docv) seconds.")
  in
  let until =
    Arg.(
      value
      & opt (some float) None
      & info [ "until" ] ~docv:"T" ~doc:"Only events at simulated time <= $(docv) seconds.")
  in
  let limit =
    Arg.(value & opt int 0 & info [ "limit" ] ~doc:"Keep only the last N events (0 = all).")
  in
  let render =
    Arg.(
      value & flag
      & info [ "render" ] ~doc:"Human-readable one-per-line rendering instead of JSONL.")
  in
  let flame =
    Arg.(
      value & flag
      & info [ "flame" ]
          ~doc:
            "Instead of dumping events, fold the trace into per-transaction critical-path \
             components and print flamegraph folded-stack lines \
             ($(b,node;txn;component weight)), weights in microseconds of simulated time.")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Run a traced workload and dump the typed event stream as JSON lines")
    Term.(
      const trace_run $ workload_term ~txns:10 $ kinds $ node_filter $ txn_filter $ since
      $ until $ limit $ render $ flame)

(* ---- stress ---- *)

module Fault_plan = Repro_fault.Fault_plan
module Stress = Repro_workload.Stress

let read_plan file =
  let ic = open_in file in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  Fault_plan.of_json (Json.of_string s)

let write_plan file plan =
  let oc = open_out file in
  output_string oc (Json.to_string_pretty (Fault_plan.to_json plan));
  output_char oc '\n';
  close_out oc

(* The scenario knobs of [stress]: the same flags give the same schedule
   for the same seed. *)
type scenario = { classes : Fault_plan.classes; group_commit : bool; elr : bool }

let scenario_term =
  let fault_classes =
    let parse s = Result.map_error (fun msg -> `Msg msg) (Fault_plan.classes_of_string s) in
    let print ppf (c : Fault_plan.classes) =
      let on =
        List.filter_map
          (fun (name, set) -> if set then Some name else None)
          [ ("net", c.net); ("disk", c.disk); ("crashpoints", c.crashpoints);
            ("recovery", c.recovery) ]
      in
      Format.pp_print_string ppf (if on = [] then "none" else String.concat "," on)
    in
    Arg.conv (parse, print)
  in
  let classes =
    Arg.(
      value
      & opt fault_classes Fault_plan.no_classes
      & info [ "faults" ] ~docv:"CLASSES"
          ~doc:
            "Enable deterministic fault injection.  Comma-separated classes from $(b,net) \
             (message drop / duplication / delay / temporary partitions), $(b,disk) (torn log \
             writes on crash), $(b,crashpoints) (crashes at named protocol points) and \
             $(b,recovery) (crashes, drops and partitions during recovery itself: named \
             crash points after analysis, mid-redo, before undo, mid-undo and at the \
             end-of-restart checkpoint — recovery must restart its way through); \
             $(b,all) enables everything.")
  in
  let group_commit =
    Arg.(
      value & flag
      & info [ "group-commit" ]
          ~doc:
            "Randomize group-commit batching per seed (~3/4 of the runs get a window and \
             batch cap drawn from a dedicated substream), so the faulted sweep exercises \
             batched commit paths.")
  in
  let elr =
    Arg.(
      value & flag
      & info [ "elr" ]
          ~doc:
            "Randomize early lock release per seed (~3/4 of the runs set the bit, drawn from \
             a dedicated substream).  Only effective on runs where $(b,--group-commit) drew a \
             batching window — early release gates on group commit — so pair the two flags.  \
             The audit then also polices the weakened discipline (release-after-submit, \
             closure-loss).")
  in
  Term.(
    const (fun classes group_commit elr -> { classes; group_commit; elr })
    $ classes $ group_commit $ elr)

(* One run's schedule-visible result: the outcome counters, the clock,
   the shadow and the cluster's global metrics.  A change meant to keep
   the simulation bit-identical leaves the sweep's chained digest alone. *)
let run_digest cluster (o : Driver.outcome) =
  let b = Buffer.create 1024 in
  Printf.bprintf b "%d %d %d %d %d %d %h\n" o.Driver.committed o.Driver.voluntary_aborts
    o.Driver.deadlock_aborts o.Driver.stuck o.Driver.rounds o.Driver.sched_events
    o.Driver.sim_seconds;
  List.iter
    (fun ((pid, off), v) ->
      Buffer.add_string b (Format.asprintf "%a@%d=%Ld\n" Repro_storage.Page_id.pp pid off v))
    (List.sort compare o.Driver.shadow);
  List.iter
    (fun (k, v) -> Printf.bprintf b "%s=%d\n" k v)
    (Metrics.to_alist (Cluster.global_metrics cluster));
  Buffer.contents b

(* Every run is traced (tracing changes no metric or clock reading) and
   its event stream replayed through the protocol auditor: a seed fails
   on a wrong outcome or on any violated invariant. *)
let stress runs start sc plan_file dump_plan =
  let plan = Option.map read_plan plan_file in
  let last_plan = ref None in
  let fault_totals = Metrics.create () in
  let failures = ref 0 in
  let fingerprint = ref (Digest.string "") in
  for seed = start to start + runs - 1 do
    let cluster, outcome, plan =
      Stress.run ~trace:true ?plan ~classes:sc.classes ~group_commit:sc.group_commit ~elr:sc.elr
        seed
    in
    fingerprint := Digest.string (!fingerprint ^ run_digest cluster outcome);
    let audit = Audit.run (Recorder.events (Repro_sim.Env.obs (Cluster.env cluster))) in
    (match (outcome.Driver.stuck, Driver.verify outcome, Audit.ok audit) with
    | 0, Ok (), true -> ()
    | stuck, result, audited ->
      incr failures;
      Format.printf "seed %d: FAILED (stuck=%d%s)@." seed stuck
        (match result with Ok () -> "" | Error e -> "; " ^ List.hd e);
      if not audited then Format.printf "%a" Audit.pp audit);
    if plan <> None then begin
      last_plan := plan;
      Metrics.merge_into ~dst:fault_totals (Cluster.global_metrics cluster)
    end;
    if (seed - start) mod 50 = 49 then Format.printf "...%d runs ok@." (seed - start + 1)
  done;
  (match (dump_plan, !last_plan) with
  | Some file, Some plan -> write_plan file plan
  | Some file, None -> Fmt.failwith "--dump-plan %s: no fault plan was generated" file
  | None, _ -> ());
  if !last_plan <> None then
    Format.printf
      "faults injected: dropped=%d duplicated=%d delayed=%d link_blocks=%d torn=%d \
       torn_bytes=%d crashes=%d@."
      fault_totals.Metrics.net_msgs_dropped fault_totals.Metrics.net_msgs_duplicated
      fault_totals.Metrics.net_msgs_delayed fault_totals.Metrics.net_link_blocks
      fault_totals.Metrics.torn_crashes fault_totals.Metrics.torn_bytes_discarded
      fault_totals.Metrics.injected_crashes;
  Format.printf "stress fingerprint: %s@." (Digest.to_hex !fingerprint);
  if !failures = 0 then Format.printf "stress: %d randomized runs verified and audited@." runs
  else begin
    Format.printf "stress: %d FAILURES@." !failures;
    exit 1
  end

let stress_cmd =
  let runs = Arg.(value & opt int 100 & info [ "runs" ] ~doc:"Number of randomized runs.") in
  let start = Arg.(value & opt int 0 & info [ "start" ] ~doc:"First seed.") in
  let plan_json =
    Arg.(
      value
      & opt (some string) None
      & info [ "plan-json" ] ~docv:"FILE"
          ~doc:
            "Replay the fault plan stored in $(docv) (as written by $(b,--dump-plan)) instead \
             of generating one per seed.  The same plan and workload reproduce the identical \
             run, bit for bit.")
  in
  let dump_plan =
    Arg.(
      value
      & opt (some string) None
      & info [ "dump-plan" ] ~docv:"FILE"
          ~doc:"Write the last run's fault plan to $(docv) as JSON.")
  in
  Cmd.v
    (Cmd.info "stress"
       ~doc:
         "Randomized crash-schedule runs, traced, with the durability oracle and the protocol \
          auditor, optionally under deterministic fault injection; non-zero exit on any \
          failure or violation")
    Term.(const stress $ runs $ start $ scenario_term $ plan_json $ dump_plan)

(* ---- scale ---- *)

module Scale = Repro_workload.Scale

(* Big-cluster scale runs (the CLI face of E14).  Deterministic columns
   (committed, txn/s over simulated time, p95, abort rate, scheduler
   events) come from the simulation; wall-clock columns (sim-events/sec,
   wall seconds) measure the simulator itself on this machine.  The
   report is written as BENCH_SCALE.json so the bench regression gate
   can hold both kinds of column to a budget. *)
let scale_run nodes_list clients_per_node profile txns seed mpl pages_per_node out json =
  (match Scale.find profile with
  | Some _ -> ()
  | None ->
    Fmt.failwith "unknown profile %S (have: %s)" profile (String.concat ", " (Scale.names ())));
  let points = List.map (fun n -> (n, clients_per_node * n)) nodes_list in
  let runs =
    List.map
      (fun (nodes, clients) ->
        let t0 = Unix.gettimeofday () in
        let _cluster, o =
          Experiments.scale_point ~seed ~mpl ~pages_per_node ~txns_per_client:txns ~nodes
            ~clients ~profile ()
        in
        let wall = Unix.gettimeofday () -. t0 in
        Format.eprintf "scale: %d nodes / %d clients done in %.1fs wall@." nodes clients wall;
        ((nodes, clients), o, wall))
      points
  in
  let rows =
    List.map
      (fun ((nodes, clients), o, wall) ->
        Experiments.scale_row ~nodes ~clients ~profile o
        @ [
            Report.f2 (float_of_int o.Driver.sched_events /. wall);
            Printf.sprintf "%.2f" wall;
          ])
      runs
  in
  let report =
    {
      Report.id = "SCALE";
      title = Printf.sprintf "Big-cluster scale sweep: profile %s, %d clients/node" profile
          clients_per_node;
      claim =
        "the message-free commit path keeps committed throughput growing with node count; \
         the hot-path scheduler sustains the 100x world (events/s is the simulator's own \
         wall-clock speed and varies per machine)";
      header = Experiments.scale_header @ [ "events/s (wall)"; "wall s" ];
      rows;
      notes =
        [
          Printf.sprintf "seed %d, mpl %d, %d pages/node, %d txns/client; durability oracle \
                          checked on every point" seed mpl pages_per_node txns;
        ];
      data = [];
    }
  in
  (match out with
  | Some file ->
    let oc = open_out file in
    output_string oc (Json.to_string_pretty (Report.to_json report));
    output_char oc '\n';
    close_out oc;
    Format.eprintf "scale: wrote %s@." file
  | None -> ());
  if json then print_endline (Json.to_string_pretty (Report.to_json report))
  else Format.printf "%a" Report.render report

let scale_cmd =
  let nodes =
    Arg.(
      value
      & opt (list int) [ 64; 128; 256 ]
      & info [ "nodes" ] ~docv:"N,N,..." ~doc:"Cluster sizes to sweep.")
  in
  let clients_per_node =
    Arg.(
      value & opt int 8
      & info [ "clients-per-node" ] ~doc:"Scripted clients per node (total = N x this).")
  in
  let profile =
    Arg.(
      value & opt string "hot-owner"
      & info [ "profile" ] ~docv:"NAME"
          ~doc:
            "Workload profile: $(b,uniform), $(b,zipf-hot), $(b,hot-owner), $(b,read-heavy), \
             $(b,write-heavy) or $(b,mixed-geometric).")
  in
  let txns =
    Arg.(value & opt int 4 & info [ "txns" ] ~doc:"Transactions per client.")
  in
  let seed = Arg.(value & opt int 2026 & info [ "seed" ] ~doc:"Deterministic seed.") in
  let mpl =
    Arg.(value & opt int 8 & info [ "mpl" ] ~doc:"Max in-flight transactions per node.")
  in
  let pages_per_node =
    Arg.(value & opt int 16 & info [ "pages-per-node" ] ~doc:"Pages owned by each node.")
  in
  let out =
    Arg.(
      value
      & opt (some string) (Some "BENCH_SCALE.json")
      & info [ "out" ] ~docv:"FILE"
          ~doc:"Write the report as JSON to $(docv) (the bench gate's input).")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Print the report as JSON instead of a table.")
  in
  Cmd.v
    (Cmd.info "scale"
       ~doc:
         "Sweep big-cluster workloads (named profiles, hundreds of nodes, thousands of \
          clients) and report throughput, latency, abort rate and simulator speed")
    Term.(
      const scale_run $ nodes $ clients_per_node $ profile $ txns $ seed $ mpl
      $ pages_per_node $ out $ json)

(* ---- audit ---- *)

let read_jsonl_events file =
  let ic = open_in file in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  let bad = ref 0 in
  let events =
    List.filter_map
      (fun line ->
        let line = String.trim line in
        if line = "" then None
        else
          match Event.of_json (Json.of_string line) with
          | Some e -> Some e
          | None | (exception Json.Parse_error _) ->
            incr bad;
            None)
      (String.split_on_char '\n' s)
  in
  if !bad > 0 then Format.eprintf "note: %s: %d unparsable line(s) skipped@." file !bad;
  events

(* Audit a recorded JSONL trace (cblsim trace > t.jsonl).  The JSON
   report keeps its one-run list shape. *)
let audit_run file out =
  let r = Audit.run (read_jsonl_events file) in
  (match out with
  | Some f ->
    let oc = open_out f in
    output_string oc
      (Json.to_string_pretty
         (Json.Obj
            [
              ("runs", Json.Int 1);
              ("total_violations", Json.Int (List.length r.Audit.violations));
              ("ok", Json.Bool (Audit.ok r));
              ( "reports",
                Json.List [ Json.Obj [ ("run", Json.Str file); ("report", Audit.to_json r) ] ] );
            ]));
    output_char oc '\n';
    close_out oc
  | None -> ());
  Format.printf "%a" Audit.pp r;
  if not (Audit.ok r) then exit 1

let audit_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"JSONL trace to audit (as dumped by $(b,cblsim trace)).")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE" ~doc:"Write the full JSON violation report to $(docv).")
  in
  Cmd.v
    (Cmd.info "audit"
       ~doc:
         "Replay a recorded event stream through the protocol auditor (WAL ordering, \
          group-commit batch-loss closure, PSN monotonicity, strict 2PL release discipline — \
          weakened to release-after-submit plus closure-loss when early lock release is on); \
          non-zero exit on any violation.  $(b,cblsim stress) audits every run it sweeps.")
    Term.(const audit_run $ file $ out)

let () =
  let doc = "client-based logging for high performance distributed architectures (ICDE'96)" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "cblsim" ~doc)
          [ experiment_cmd; demo_cmd; trace_cmd; stress_cmd; scale_cmd; audit_cmd ]))
