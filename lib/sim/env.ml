module Recorder = Repro_obs.Recorder
module Event = Repro_obs.Event

type t = {
  config : Config.t;
  clock : Clock.t;
  obs : Recorder.t;
  rng : Repro_util.Rng.t;
  faults : Repro_fault.Injector.t option;
}

let create ?(trace = false) ?trace_capacity ?(seed = 42) ?faults config =
  {
    config;
    clock = Clock.create ();
    obs = Recorder.create ~enabled:trace ?capacity:trace_capacity ();
    rng = Repro_util.Rng.create seed;
    faults;
  }

let config t = t.config
let now t = Clock.now t.clock
let obs t = t.obs
let rng t = t.rng
let faults t = t.faults
let tracing t = Recorder.enabled t.obs

let emit t ~node kind attrs =
  if Recorder.enabled t.obs then Recorder.emit t.obs ~time:(now t) ~node kind attrs

(* Scope the causal trace context (txn, span) around [f]: every event
   emitted while [f] runs — on any node — is stamped as caused by
   [txn].  Contexts nest (save/restore), and the whole mechanism is a
   single branch when tracing is off. *)
let with_txn t ~txn ~span f =
  if not (Recorder.enabled t.obs) then f ()
  else begin
    let saved_txn, saved_span = Recorder.context t.obs in
    Recorder.set_context t.obs ~txn ~span;
    Fun.protect
      ~finally:(fun () -> Recorder.set_context t.obs ~txn:saved_txn ~span:saved_span)
      f
  end

let observe t ~name ~node v = Recorder.observe t.obs ~name ~node v
(* Cost formulas, exposed so emit sites outside this module (the
   network choke point) can attach the charged duration to their events
   without re-deriving the model. *)
let message_cost t ~bytes = t.config.net_latency +. (t.config.net_per_byte *. float_of_int bytes)
let log_force_cost t ~bytes = t.config.log_force_seek +. (t.config.disk_per_byte *. float_of_int bytes)

let busy (m : Metrics.t) dt = m.busy_seconds <- m.busy_seconds +. dt

let charge_message t m ?(commit_path = false) ?(recovery = false) ~bytes () =
  let dt = message_cost t ~bytes in
  Clock.advance t.clock dt;
  busy m dt;
  m.Metrics.messages_sent <- m.messages_sent + 1;
  m.message_bytes <- m.message_bytes + bytes;
  if commit_path then m.commit_messages <- m.commit_messages + 1;
  if recovery then m.recovery_messages <- m.recovery_messages + 1

let charge_page_read t m =
  let dt = t.config.disk_seek +. (t.config.disk_per_byte *. float_of_int t.config.page_size) in
  Clock.advance t.clock dt;
  busy m dt;
  m.Metrics.page_disk_reads <- m.page_disk_reads + 1;
  if Recorder.enabled t.obs then
    Recorder.emit t.obs ~time:(now t) ~node:m.Metrics.node Event.Page_read
      [ ("dur", Event.Float dt) ]

let charge_page_write t m ?(commit_path = false) () =
  let dt = t.config.disk_seek +. (t.config.disk_per_byte *. float_of_int t.config.page_size) in
  Clock.advance t.clock dt;
  busy m dt;
  m.Metrics.page_disk_writes <- m.page_disk_writes + 1;
  if commit_path then m.commit_page_writes <- m.commit_page_writes + 1;
  if Recorder.enabled t.obs then
    Recorder.emit t.obs ~time:(now t) ~node:m.Metrics.node Event.Page_write
      (("dur", Event.Float dt) :: (if commit_path then [ ("commit", Event.Bool true) ] else []))

let charge_log_append t m ~bytes =
  Clock.advance t.clock t.config.cpu_per_log_record;
  busy m t.config.cpu_per_log_record;
  m.Metrics.log_appends <- m.log_appends + 1;
  m.log_bytes <- m.log_bytes + bytes;
  if Recorder.enabled t.obs then
    Recorder.emit t.obs ~time:(now t) ~node:m.Metrics.node Event.Log_append
      [ ("bytes", Event.Int bytes); ("dur", Event.Float t.config.cpu_per_log_record) ]

(* [durable] is the log's durable boundary after this force; the trace
   auditor replays it to check WAL force-before-ship ordering. *)
let charge_log_force t m ?durable ~bytes () =
  let dt = log_force_cost t ~bytes in
  Clock.advance t.clock dt;
  busy m dt;
  m.Metrics.log_forces <- m.log_forces + 1;
  if Recorder.enabled t.obs then
    Recorder.emit t.obs ~time:(now t) ~node:m.Metrics.node Event.Log_force
      ([ ("bytes", Event.Int bytes); ("dur", Event.Float dt) ]
      @ match durable with Some d -> [ ("durable", Event.Int d) ] | None -> [])

let charge_log_force_shared t m ?durable ~bytes ~sharers () =
  let dt = log_force_cost t ~bytes in
  Clock.advance t.clock dt;
  busy m dt;
  m.Metrics.log_forces <- m.log_forces + 1;
  m.commit_batches <- m.commit_batches + 1;
  m.batched_commits <- m.batched_commits + sharers;
  if Recorder.enabled t.obs then
    Recorder.emit t.obs ~time:(now t) ~node:m.Metrics.node Event.Log_force
      ([ ("bytes", Event.Int bytes); ("dur", Event.Float dt); ("sharers", Event.Int sharers) ]
      @ match durable with Some d -> [ ("durable", Event.Int d) ] | None -> [])

let charge_log_scan_record t m ~bytes =
  let dt = t.config.cpu_per_log_record +. (t.config.disk_per_byte *. float_of_int bytes) in
  Clock.advance t.clock dt;
  busy m dt;
  m.Metrics.recovery_log_records_scanned <- m.recovery_log_records_scanned + 1

let charge_lock_op t m =
  Clock.advance t.clock t.config.cpu_per_lock_op;
  busy m t.config.cpu_per_lock_op

let charge_cpu t dt = Clock.advance t.clock dt

let charge_cpu_for t m dt =
  Clock.advance t.clock dt;
  busy m dt
