module Cluster = Repro_cbl.Cluster
module Recovery = Repro_cbl.Recovery
module Config = Repro_sim.Config
module Rng = Repro_util.Rng
module Fault_plan = Repro_fault.Fault_plan
module Injector = Repro_fault.Injector

let run ?(trace = false) ?plan ~classes ~group_commit ~elr seed =
  let faults_on = Option.is_some plan || classes <> Fault_plan.no_classes in
  let rng = Rng.create seed in
  (* The plan draws from a split substream so that the legacy draws
     below are untouched; without fault flags nothing here runs and
     historical seeds reproduce bit-identically. *)
  let plan =
    match plan with
    | Some _ as p -> p
    | None -> if faults_on then Some (Fault_plan.generate (Rng.split rng) ~classes) else None
  in
  let faults = Option.map Injector.create plan in
  let config =
    (* like the plan, group-commit parameters come from their own
       substream; with the flag off no draw happens and historical
       seeds reproduce bit-identically *)
    if group_commit then begin
      let gr = Rng.split rng in
      if Rng.chance gr 0.75 then
        Config.with_group_commit Config.instant
          ~window_ms:(0.5 +. Rng.float gr 20.)
          ~max_batch:(2 + Rng.int gr 7)
      else Config.instant
    end
    else Config.instant
  in
  let config =
    (* early release draws from its own substream too, and only with the
       flag on — historical seeds replay bit-identically without it.
       The bit is inert unless the group-commit draw above produced a
       batching window (elr gates on group commit), so pair [elr] with
       [group_commit]. *)
    if elr then begin
      let er = Rng.split rng in
      Config.with_early_release config (Rng.chance er 0.75)
    end
    else config
  in
  let nodes = 2 + Rng.int rng 4 in
  let cluster =
    (* a large ring keeps the auditor's prefix-dependent checks armed;
       it is allocated on the first recorded event, so untraced runs
       never pay for it *)
    Cluster.create ~trace ~trace_capacity:(1 lsl 20) ~seed ?faults ~nodes
      ~pool_capacity:(8 + Rng.int rng 24) config
  in
  let owners = List.init (1 + Rng.int rng (min 3 nodes)) (fun i -> i) in
  let pages_by_owner =
    List.map
      (fun o -> (o, Cluster.allocate_pages cluster ~owner:o ~count:(8 + Rng.int rng 16)))
      owners
  in
  let engine0 = Engine.of_cluster cluster in
  let engine =
    if seed mod 2 = 1 then
      {
        engine0 with
        Engine.recover =
          (fun ~nodes -> Cluster.recover ~strategy:Recovery.Merged_logs cluster ~nodes);
      }
    else engine0
  in
  let scripts =
    Generators.partitioned rng ~pages_by_owner
      ~clients:(List.init nodes (fun i -> i))
      ~txns_per_client:(4 + Rng.int rng 10)
      ~mix:
        {
          Generators.ops_per_txn = 2 + Rng.int rng 8;
          update_fraction = 0.3 +. Rng.float rng 0.6;
          remote_fraction = Rng.float rng 0.8;
          theta = Rng.float rng 1.0;
          savepoint_fraction = Rng.float rng 0.3;
          abort_fraction = Rng.float rng 0.2;
        }
  in
  let events = ref [] in
  let t = ref 10 in
  let crashed = ref [] in
  for _ = 1 to Rng.int rng 4 do
    let victim = Rng.int rng nodes in
    if not (List.mem victim !crashed) then begin
      events := (!t, Driver.Crash victim) :: !events;
      crashed := victim :: !crashed;
      t := !t + 5 + Rng.int rng 20;
      if Rng.chance rng 0.6 || List.length !crashed >= 2 then begin
        events := (!t, Driver.Recover !crashed) :: !events;
        crashed := [];
        t := !t + 5 + Rng.int rng 15
      end
    end
  done;
  if !crashed <> [] then events := (!t + 5, Driver.Recover !crashed) :: !events;
  (* Fault-injected runs also take checkpoints mid-workload: the
     mid-checkpoint crash point can only fire inside one. *)
  if faults_on then
    for _ = 1 to 2 + Rng.int rng 3 do
      events := (5 + Rng.int rng 60, Driver.Checkpoint (Rng.int rng nodes)) :: !events
    done;
  let outcome =
    Driver.run engine
      ~events:(List.sort compare !events)
      ~max_rounds:30_000
      ?auto_recover:(if faults_on then Some 6 else None)
      scripts
  in
  (* The end-of-run cleanup recovery can itself die at a recovery crash
     point (that is the point of the recovery fault class). *)
  Cluster.recover_until_up cluster;
  Cluster.check_invariants cluster;
  (cluster, outcome, plan)
