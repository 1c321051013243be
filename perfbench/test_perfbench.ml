(* The benchmark observes and must not perturb: a wrapped engine has to
   reproduce the unwrapped run bit for bit. *)

open Perfbench
module Config = Repro_sim.Config
module Cluster = Repro_cbl.Cluster
module Engine = Repro_workload.Engine
module Driver = Repro_workload.Driver
module Generators = Repro_workload.Generators
module Metrics = Repro_sim.Metrics

let small_run wrap =
  let cluster = Cluster.create ~seed:7 ~nodes:3 Config.default in
  let pages_by_owner =
    List.map (fun o -> (o, Cluster.allocate_pages cluster ~owner:o ~count:8)) [ 0; 1; 2 ]
  in
  let scripts =
    Generators.partitioned (Repro_util.Rng.create 7) ~pages_by_owner ~clients:[ 0; 1; 2; 0; 1; 2 ]
      ~txns_per_client:10
      ~mix:{ Generators.default_mix with update_fraction = 0.7 }
  in
  let events = [ (15, Driver.Crash 1); (25, Driver.Recover [ 1 ]) ] in
  let outcome = Driver.run (wrap (Engine.of_cluster cluster)) ~events ~mpl:2 scripts in
  (outcome, Metrics.to_alist (Cluster.global_metrics cluster))

let same_outcome (a, ma) (b, mb) =
  Alcotest.(check int) "committed" a.Driver.committed b.Driver.committed;
  Alcotest.(check int) "deadlock aborts" a.Driver.deadlock_aborts b.Driver.deadlock_aborts;
  Alcotest.(check int) "rounds" a.Driver.rounds b.Driver.rounds;
  Alcotest.(check int) "sched events" a.Driver.sched_events b.Driver.sched_events;
  Alcotest.(check bool) "sim seconds bit-identical" true
    (Int64.equal
       (Int64.bits_of_float a.Driver.sim_seconds)
       (Int64.bits_of_float b.Driver.sim_seconds));
  Alcotest.(check bool) "latencies bit-identical" true (a.Driver.latencies = b.Driver.latencies);
  Alcotest.(check bool) "shadow identical" true
    (List.sort compare a.Driver.shadow = List.sort compare b.Driver.shadow);
  Alcotest.(check (list (pair string int))) "metrics" ma mb

let test_wrapped_engine () =
  let plain = small_run Fun.id in
  let sp = Spans.create () in
  let traced = small_run (Wrap.traced sp) in
  same_outcome plain traced;
  let reads = Spans.summarize sp (Spans.Op Spans.Read) in
  Alcotest.(check bool) "reads were timed" true (reads.Spans.calls > 0);
  let recovers = Spans.summarize sp (Spans.Op Spans.Recover) in
  Alcotest.(check int) "one recover span" 1 recovers.Spans.calls;
  let timed = ref [] in
  let restarted = small_run (Wrap.timing_recover (fun r -> timed := r :: !timed)) in
  same_outcome plain restarted;
  Alcotest.(check int) "one restart reported" 1 (List.length !timed)

let test_span_self_time () =
  let sp = Spans.create () in
  Spans.span sp Spans.Driver_run (fun () ->
      Spans.span sp (Spans.Op Spans.Read) ignore;
      try
        Spans.span sp (Spans.Op Spans.Read) (fun () ->
            Repro_cbl.Block.block (Node_down { node = 1 }))
      with Repro_cbl.Block.Would_block _ -> ());
  let run = Spans.summarize sp Spans.Driver_run in
  let read = Spans.summarize sp (Spans.Op Spans.Read) in
  Alcotest.(check int) "two reads" 2 read.Spans.calls;
  Alcotest.(check int) "one blocked" 1 read.Spans.blocked;
  Alcotest.(check int) "node_down" 1 read.Spans.by_reason.(1);
  Alcotest.(check bool) "self excludes children" true
    (Float.abs (run.Spans.self_s -. (run.Spans.total_s -. read.Spans.total_s)) < 1e-9)

(* Every mode of a real workload repetition simulates the same run. *)
let test_modes_agree name () =
  let w = Option.get (Workloads.find name) in
  let plain = Rep.run Rep.Plain w ~seed:3 in
  Alcotest.(check (list string)) "correct" [] plain.Rep.errors;
  List.iter
    (fun (label, mode) ->
      let r = Rep.run mode w ~seed:3 in
      Alcotest.(check string) label plain.Rep.fingerprint r.Rep.fingerprint)
    [ ("repeat", Rep.Plain); ("spans", Rep.Spans (Spans.create ())); ("recorder", Rep.Recorder) ]

let () =
  Alcotest.run "perfbench"
    [
      ( "observation-only",
        [
          Alcotest.test_case "wrapped engine is bit-identical" `Quick test_wrapped_engine;
          Alcotest.test_case "span self time" `Quick test_span_self_time;
          Alcotest.test_case "commit-batch modes agree" `Quick (test_modes_agree "commit-batch");
          Alcotest.test_case "restart-load modes agree" `Quick (test_modes_agree "restart-load");
        ] );
    ]
