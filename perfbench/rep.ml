module Cluster = Repro_cbl.Cluster
module Block = Repro_cbl.Block
module Engine = Repro_workload.Engine
module Driver = Repro_workload.Driver
module Metrics = Repro_sim.Metrics
module Env = Repro_sim.Env
module Recorder = Repro_obs.Recorder
module Log_hist = Repro_obs.Log_hist
module Stats = Repro_util.Stats

type mode = Plain | Spans of Spans.t | Recorder

type gc = {
  minor_words : float;
  promoted_words : float;
  minor_collections : int;
  major_collections : int;
}

type t = {
  scripts : int;
  setup_cluster_s : float;
  setup_scripts_s : float;
  run_s : float;
  run_gc : gc;
  outcome : Driver.outcome;
  run_metrics : Metrics.t;
  metrics : Metrics.t;
  restarts : Wrap.restart list;
  recovery_phases : (string * float) list;
  errors : string list;
  fingerprint : string;
  events : Repro_obs.Event.t list;
}

let recovery_prefix = "recovery."

let recovery_phases cluster =
  List.filter_map
    (fun (name, node, h) ->
      let p = String.length recovery_prefix in
      if node = -1 && String.length name > p && String.sub name 0 p = recovery_prefix then
        Some (String.sub name p (String.length name - p), Log_hist.total h)
      else None)
    (Recorder.histograms (Env.obs (Cluster.env cluster)))

(* Everything the simulation decides, floats by their exact bits. *)
let fingerprint (o : Driver.outcome) ~run_metrics ~metrics ~restarts ~phases =
  let b = Buffer.create 2048 in
  let l = o.Driver.latencies in
  Printf.bprintf b "%d %d %d %d %d %d %h|%d %h %h %h %h|" o.Driver.committed
    o.Driver.voluntary_aborts o.Driver.deadlock_aborts o.Driver.stuck o.Driver.rounds
    o.Driver.sched_events o.Driver.sim_seconds l.Stats.count l.Stats.mean l.Stats.p50 l.Stats.p99
    l.Stats.max;
  List.iter
    (fun (m : Metrics.t) ->
      List.iter (fun (k, v) -> Printf.bprintf b "%s=%d " k v) (Metrics.to_alist m);
      Printf.bprintf b "busy=%h|" m.Metrics.busy_seconds)
    [ run_metrics; metrics ];
  List.iter (fun (r : Wrap.restart) -> Printf.bprintf b "%h " r.Wrap.sim_s) restarts;
  List.iter (fun (name, s) -> Printf.bprintf b "%s=%h " name s) phases;
  Digest.to_hex (Digest.string (Buffer.contents b))

let run mode (w : Workloads.t) ~seed =
  let timed layer f =
    let t0 = Spans.now () in
    let v = match mode with Spans sp -> Spans.span sp layer f | Plain | Recorder -> f () in
    (v, Spans.now () -. t0)
  in
  let trace = match mode with Recorder -> true | Plain | Spans _ -> false in
  let (cluster, pages), setup_cluster_s =
    timed Spans.Setup_cluster (fun () -> Workloads.cluster ~trace w ~seed)
  in
  let scripts, setup_scripts_s =
    timed Spans.Setup_scripts (fun () -> Workloads.scripts w ~seed pages)
  in
  let restarts = ref [] in
  let engine =
    let base = Engine.of_cluster cluster in
    Wrap.timing_recover
      (fun r -> restarts := r :: !restarts)
      (match mode with Spans sp -> Wrap.traced sp base | Plain | Recorder -> base)
  in
  let before = Metrics.snapshot (Cluster.global_metrics cluster) in
  let gc0 = Gc.quick_stat () in
  let (outcome, minor_words), run_s =
    timed Spans.Driver_run (fun () ->
        let w0 = Gc.minor_words () in
        let o = Driver.run engine ~events:w.Workloads.events ~mpl:w.Workloads.mpl scripts in
        (o, Gc.minor_words () -. w0))
  in
  let gc1 = Gc.quick_stat () in
  let run_gc =
    {
      minor_words;
      promoted_words = gc1.Gc.promoted_words -. gc0.Gc.promoted_words;
      minor_collections = gc1.Gc.minor_collections - gc0.Gc.minor_collections;
      major_collections = gc1.Gc.major_collections - gc0.Gc.major_collections;
    }
  in
  let run_metrics = Metrics.diff ~after:(Cluster.global_metrics cluster) ~before in
  let errors = ref [] in
  let err fmt = Format.kasprintf (fun s -> errors := s :: !errors) fmt in
  if outcome.Driver.stuck > 0 then err "%d stuck scripts" outcome.Driver.stuck;
  let down () = List.filter (fun n -> not (engine.Engine.is_up ~node:n)) engine.Engine.nodes in
  let recover = function
    | [] -> ()
    | nodes -> (
      try engine.Engine.recover ~nodes
      with Block.Would_block r -> err "recovery did not converge: %a" Block.pp_reason r)
  in
  (* close any restart the schedule left open, then restart the
     workload's nodes one at a time *)
  recover (down ());
  List.iter
    (fun node ->
      engine.Engine.crash ~node;
      recover (down ()))
    w.Workloads.restart;
  (match down () with
  | [] -> ()
  | nodes ->
    err "nodes still down after recovery: %s" (String.concat "," (List.map string_of_int nodes)));
  (match fst (timed Spans.Driver_verify (fun () -> Driver.verify outcome)) with
  | Ok () -> ()
  | Error mismatches -> List.iter (fun m -> err "oracle: %s" m) mismatches
  | exception Failure msg -> err "oracle: %s" msg);
  let metrics = Metrics.snapshot (Cluster.global_metrics cluster) in
  if metrics.Metrics.commit_messages > 0 then
    err "%d commit-path messages" metrics.Metrics.commit_messages;
  let restarts = List.rev !restarts in
  let phases = recovery_phases cluster in
  {
    scripts = List.length scripts;
    setup_cluster_s;
    setup_scripts_s;
    run_s;
    run_gc;
    outcome;
    run_metrics;
    metrics;
    restarts;
    recovery_phases = phases;
    errors = List.rev !errors;
    fingerprint = fingerprint outcome ~run_metrics ~metrics ~restarts ~phases;
    events =
      (match mode with
      | Recorder -> Recorder.events (Env.obs (Cluster.env cluster))
      | Plain | Spans _ -> []);
  }
