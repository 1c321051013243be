(* Tests for the simulation substrate: clock, config, metrics, and the
   charging discipline of Env. *)

module Config = Repro_sim.Config
module Metrics = Repro_sim.Metrics
module Env = Repro_sim.Env

let feq = Alcotest.(check (float 1e-12))

let test_clock () =
  let env = Env.create Config.default in
  let m = Metrics.create () in
  feq "starts at zero" 0. (Env.now env);
  Env.charge_cpu env 1.5;
  Env.charge_cpu_for env m 0.25;
  feq "advances" 1.75 (Env.now env);
  feq "only charge_cpu_for is busy time" 0.25 m.Metrics.busy_seconds;
  feq "a new env starts at zero" 0. (Env.now (Env.create Config.default))

let test_config_builders () =
  let c = Config.with_net_latency Config.default 0.5 in
  feq "latency set" 0.5 c.Config.net_latency;
  let c = Config.with_page_size Config.default 512 in
  Alcotest.(check int) "page size set" 512 c.Config.page_size;
  feq "instant has no costs" 0. Config.instant.Config.disk_seek

let test_metrics_snapshot_diff_merge () =
  let m = Metrics.create () in
  m.Metrics.messages_sent <- 5;
  m.Metrics.busy_seconds <- 1.5;
  let snap = Metrics.snapshot m in
  m.Metrics.messages_sent <- 9;
  m.Metrics.busy_seconds <- 2.0;
  let d = Metrics.diff ~after:m ~before:snap in
  Alcotest.(check int) "int diff" 4 d.Metrics.messages_sent;
  feq "float diff" 0.5 d.Metrics.busy_seconds;
  let dst = Metrics.create () in
  Metrics.merge_into ~dst d;
  Metrics.merge_into ~dst d;
  Alcotest.(check int) "merged twice" 8 dst.Metrics.messages_sent;
  Alcotest.(check int) "snapshot is a copy" 5 snap.Metrics.messages_sent;
  feq "snapshot float is a copy" 1.5 snap.Metrics.busy_seconds

(* [Metrics.fields] is kept by hand; a counter missing from it drops out
   of [diff], [merge_into] and the JSON silently.  Every slot of the
   record but [node] (first) and [busy_seconds] (last) must be listed
   once, and each name must read its own slot. *)
let test_metrics_alist_is_stable () =
  let m = Metrics.create () in
  let names = List.map fst (Metrics.to_alist m) in
  Alcotest.(check bool) "commit_messages present" true (List.mem "commit_messages" names);
  Alcotest.(check bool) "no duplicates" true
    (List.length names = List.length (List.sort_uniq compare names));
  let slots = Obj.size (Obj.repr m) in
  Alcotest.(check int) "one name per counter" slots (List.length names + 2);
  for i = 1 to slots - 2 do
    Obj.set_field (Obj.repr m) i (Obj.repr i)
  done;
  Alcotest.(check (list int))
    "each counter reads its own slot"
    (List.init (slots - 2) (fun i -> i + 1))
    (List.sort compare (List.map snd (Metrics.to_alist m)))

let test_env_charges_advance_clock_and_busy () =
  let env = Env.create Config.default in
  let m = Metrics.create () in
  Env.charge_message env m ~bytes:1000 ();
  let expected = Config.default.Config.net_latency +. (1000. *. Config.default.Config.net_per_byte) in
  feq "clock advanced by the message" expected (Env.now env);
  feq "busy time attributed" expected m.Metrics.busy_seconds;
  Alcotest.(check int) "counted" 1 m.Metrics.messages_sent;
  Alcotest.(check int) "bytes" 1000 m.Metrics.message_bytes

let test_env_commit_path_flag () =
  let env = Env.create Config.instant in
  let m = Metrics.create () in
  Env.charge_message env m ~bytes:10 ();
  Env.charge_message env m ~commit_path:true ~bytes:10 ();
  Env.charge_message env m ~recovery:true ~bytes:10 ();
  Alcotest.(check int) "messages" 3 m.Metrics.messages_sent;
  Alcotest.(check int) "commit path" 1 m.Metrics.commit_messages;
  Alcotest.(check int) "recovery" 1 m.Metrics.recovery_messages

let test_env_disk_and_log_charges () =
  let env = Env.create Config.default in
  let m = Metrics.create () in
  Env.charge_page_read env m;
  Env.charge_page_write env m ~commit_path:true ();
  Env.charge_log_append env m ~bytes:100;
  Env.charge_log_force env m ~bytes:100 ();
  Env.charge_log_scan_record env m ~bytes:100;
  Alcotest.(check int) "read" 1 m.Metrics.page_disk_reads;
  Alcotest.(check int) "write" 1 m.Metrics.page_disk_writes;
  Alcotest.(check int) "commit write" 1 m.Metrics.commit_page_writes;
  Alcotest.(check int) "append" 1 m.Metrics.log_appends;
  Alcotest.(check int) "force" 1 m.Metrics.log_forces;
  Alcotest.(check int) "scan" 1 m.Metrics.recovery_log_records_scanned;
  Alcotest.(check bool) "time moved" true (Env.now env > 0.)

let test_env_determinism () =
  let run () =
    let env = Env.create Config.default in
    let m = Metrics.create () in
    for i = 1 to 10 do
      Env.charge_message env m ~bytes:i ()
    done;
    Env.now env
  in
  feq "same charges, same clock" (run ()) (run ())

let suite =
  [
    ("clock", `Quick, test_clock);
    ("config builders", `Quick, test_config_builders);
    ("metrics snapshot/diff/merge", `Quick, test_metrics_snapshot_diff_merge);
    ("metrics alist stable", `Quick, test_metrics_alist_is_stable);
    ("env charges clock+busy", `Quick, test_env_charges_advance_clock_and_busy);
    ("env path flags", `Quick, test_env_commit_path_flag);
    ("env disk/log charges", `Quick, test_env_disk_and_log_charges);
    ("env determinism", `Quick, test_env_determinism);
  ]
