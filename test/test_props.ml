(* Property-based tests: the central durability oracle under random
   workloads and random crash schedules, plus structural invariants. *)

module Cluster = Repro_cbl.Cluster
module Recovery = Repro_cbl.Recovery
module Engine = Repro_workload.Engine
module Driver = Repro_workload.Driver
module Generators = Repro_workload.Generators
module Stress = Repro_workload.Stress
module Config = Repro_sim.Config
module Page = Repro_storage.Page
module Page_id = Repro_storage.Page_id
module Record = Repro_wal.Record
module Rng = Repro_util.Rng

let qcheck = QCheck_alcotest.to_alcotest

(* One randomized cluster run, the fault-free stress scenario: random
   topology, random workload, random crash schedule, alternating
   recovery strategies.  The property: the run finishes, invariants hold
   (checked inside [Stress.run]), and the durability oracle verifies. *)
let run_one seed =
  let _, outcome, _ =
    Stress.run ~classes:Repro_fault.Fault_plan.no_classes ~group_commit:false ~elr:false seed
  in
  if outcome.Driver.stuck > 0 then Error (Printf.sprintf "%d stuck" outcome.Driver.stuck)
  else match Driver.verify outcome with Ok () -> Ok () | Error errs -> Error (String.concat "; " errs)

let prop_durability_under_crashes =
  QCheck.Test.make ~name:"durability oracle under random crash schedules" ~count:60
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      match run_one seed with
      | Ok () -> true
      | Error msg -> QCheck.Test.fail_reportf "seed %d: %s" seed msg)

(* Undo is the exact inverse of apply: op; invert op = identity. *)
let gen_page_and_op =
  QCheck.Gen.(
    let* off = int_bound 6 in
    let off = off * 8 in
    let* kind = bool in
    let* seed = int_bound 10_000 in
    let page = Page.create ~id:(Page_id.make ~owner:0 ~slot:0) ~psn:0 ~size:64 in
    let rng = Rng.create seed in
    for i = 0 to 7 do
      Page.set_cell page ~off:(i * 8) (Rng.next_int64 rng)
    done;
    let op =
      if kind then Record.Delta { off; delta = Rng.next_int64 rng }
      else
        Record.Physical
          { off; before = Page.read page ~off ~len:8; after = String.init 8 (fun i -> Char.chr ((i * 37 + seed) land 0xFF)) }
    in
    return (page, op))

let prop_invert_roundtrip =
  QCheck.Test.make ~name:"apply op then inverse restores the page" ~count:300
    (QCheck.make gen_page_and_op) (fun (page, op) ->
      let before = Page.read page ~off:0 ~len:64 in
      Record.apply_op page op;
      Record.apply_op page (Record.invert op);
      Page.read page ~off:0 ~len:64 = before)

(* NodePSNList merge is sorted by PSN and collapse-free across nodes. *)
let gen_runs =
  QCheck.Gen.(
    let* n_nodes = int_range 1 4 in
    let* psns = list_size (int_range 1 12) (int_bound 100) in
    let psns = List.sort_uniq compare psns in
    let* assignment = list_repeat (List.length psns) (int_bound (n_nodes - 1)) in
    let runs =
      List.map2
        (fun psn node -> { Repro_cbl.Node_psn_list.node; psn; lsn = psn * 10 })
        psns assignment
    in
    (* split per node, as build would produce them *)
    let per_node =
      List.init n_nodes (fun i ->
          List.filter (fun r -> r.Repro_cbl.Node_psn_list.node = i) runs)
    in
    return per_node)

let prop_merge_sorted_and_alternating =
  QCheck.Test.make ~name:"NodePSNList merge is PSN-sorted with no adjacent same-node runs"
    ~count:300 (QCheck.make gen_runs) (fun per_node ->
      let merged = Repro_cbl.Node_psn_list.merge per_node in
      let rec ok = function
        | a :: b :: rest ->
          a.Repro_cbl.Node_psn_list.psn < b.Repro_cbl.Node_psn_list.psn
          && a.Repro_cbl.Node_psn_list.node <> b.Repro_cbl.Node_psn_list.node
          && ok (b :: rest)
        | _ -> true
      in
      ok merged)

(* The two recovery strategies are observationally equivalent: running
   the same seeded workload + crash and reading every allocated cell
   back must give identical values. *)
let strategy_equivalent seed =
  let run strategy =
    let rng = Rng.create seed in
    let cluster = Cluster.create ~seed ~nodes:3 ~pool_capacity:12 Config.instant in
    let pages = Cluster.allocate_pages cluster ~owner:0 ~count:8 in
    let engine =
      {
        (Engine.of_cluster cluster) with
        Engine.recover = (fun ~nodes -> Cluster.recover ~strategy cluster ~nodes);
      }
    in
    let scripts =
      Generators.hotspot rng ~pages ~clients:[ 1; 2 ] ~txns_per_client:6
        ~mix:
          {
            Generators.default_mix with
            update_fraction = 0.8;
            theta = 0.5;
            savepoint_fraction = 0.2;
          }
    in
    let events = [ (8, Driver.Crash 1); (16, Driver.Recover [ 1 ]) ] in
    let outcome = Driver.run engine ~events ~max_rounds:20_000 scripts in
    if outcome.Driver.stuck > 0 then failwith "stuck";
    let t = Cluster.begin_txn cluster ~node:2 in
    let state =
      List.map
        (fun p -> List.init 16 (fun i -> Cluster.read_cell cluster ~txn:t ~pid:p ~off:(i * 8)))
        pages
    in
    Cluster.commit cluster ~txn:t;
    state
  in
  run Recovery.Psn_coordinated = run Recovery.Merged_logs

let prop_strategy_equivalence =
  QCheck.Test.make ~name:"PSN-coordinated and merged-log recovery agree cell-for-cell" ~count:30
    QCheck.(int_range 0 1_000_000)
    strategy_equivalent

let suite =
  [
    qcheck prop_durability_under_crashes;
    qcheck prop_invert_roundtrip;
    qcheck prop_merge_sorted_and_alternating;
    qcheck prop_strategy_equivalence;
  ]
