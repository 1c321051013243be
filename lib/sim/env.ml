module Recorder = Repro_obs.Recorder
module Event = Repro_obs.Event

type t = {
  config : Config.t;
  clock : Clock.t;
  obs : Recorder.t;
  rng : Repro_util.Rng.t;
  global : Metrics.t;
  faults : Repro_fault.Injector.t option;
}

let create ?(trace = false) ?trace_capacity ?(seed = 42) ?faults config =
  {
    config;
    clock = Clock.create ();
    obs = Recorder.create ~enabled:trace ?capacity:trace_capacity ();
    rng = Repro_util.Rng.create seed;
    global = Metrics.create ();
    faults;
  }

let config t = t.config
let clock t = t.clock
let now t = Clock.now t.clock
let obs t = t.obs
let rng t = t.rng
let global_metrics t = t.global
let faults t = t.faults
let tracing t = Recorder.enabled t.obs

let emit t ~node kind attrs =
  if Recorder.enabled t.obs then begin
    Recorder.emit t.obs ~time:(now t) ~node kind attrs;
    (* mirror the ring's overwrite counter so metrics exports carry it;
       stays 0 when tracing is off — untraced metrics are untouched *)
    t.global.Metrics.trace_events_dropped <- Recorder.dropped t.obs
  end

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
let hist t ~name ~node = Recorder.hist t.obs ~name ~node

(* Cost formulas, exposed so emit sites outside this module (the
   network choke point) can attach the charged duration to their events
   without re-deriving the model. *)
let message_cost t ~bytes = t.config.net_latency +. (t.config.net_per_byte *. float_of_int bytes)
let log_force_cost t ~bytes = t.config.log_force_seek +. (t.config.disk_per_byte *. float_of_int bytes)

let both t m f =
  f m;
  f t.global

let busy t m dt =
  m.Metrics.busy_seconds <- m.Metrics.busy_seconds +. dt;
  t.global.Metrics.busy_seconds <- t.global.Metrics.busy_seconds +. dt

let charge_message t m ?(commit_path = false) ?(recovery = false) ~bytes () =
  let dt = message_cost t ~bytes in
  Clock.advance t.clock dt;
  busy t m dt;
  both t m (fun c ->
      c.Metrics.messages_sent <- c.Metrics.messages_sent + 1;
      c.Metrics.message_bytes <- c.Metrics.message_bytes + bytes;
      if commit_path then c.Metrics.commit_messages <- c.Metrics.commit_messages + 1;
      if recovery then c.Metrics.recovery_messages <- c.Metrics.recovery_messages + 1)

let charge_page_read t m =
  let dt = t.config.disk_seek +. (t.config.disk_per_byte *. float_of_int t.config.page_size) in
  Clock.advance t.clock dt;
  busy t m dt;
  both t m (fun c -> c.Metrics.page_disk_reads <- c.Metrics.page_disk_reads + 1);
  if Recorder.enabled t.obs then
    Recorder.emit t.obs ~time:(now t) ~node:m.Metrics.node Event.Page_read
      [ ("dur", Event.Float dt) ]

let charge_page_write t m ?(commit_path = false) () =
  let dt = t.config.disk_seek +. (t.config.disk_per_byte *. float_of_int t.config.page_size) in
  Clock.advance t.clock dt;
  busy t m dt;
  both t m (fun c ->
      c.Metrics.page_disk_writes <- c.Metrics.page_disk_writes + 1;
      if commit_path then c.Metrics.commit_page_writes <- c.Metrics.commit_page_writes + 1);
  if Recorder.enabled t.obs then
    Recorder.emit t.obs ~time:(now t) ~node:m.Metrics.node Event.Page_write
      (("dur", Event.Float dt) :: (if commit_path then [ ("commit", Event.Bool true) ] else []))

let charge_log_append t m ~bytes =
  Clock.advance t.clock t.config.cpu_per_log_record;
  busy t m t.config.cpu_per_log_record;
  both t m (fun c ->
      c.Metrics.log_appends <- c.Metrics.log_appends + 1;
      c.Metrics.log_bytes <- c.Metrics.log_bytes + bytes);
  if Recorder.enabled t.obs then
    Recorder.emit t.obs ~time:(now t) ~node:m.Metrics.node Event.Log_append
      [ ("bytes", Event.Int bytes); ("dur", Event.Float t.config.cpu_per_log_record) ]

(* [durable] is the log's durable boundary after this force; the trace
   auditor replays it to check WAL force-before-ship ordering. *)
let charge_log_force t m ?durable ~bytes () =
  let dt = log_force_cost t ~bytes in
  Clock.advance t.clock dt;
  busy t m dt;
  both t m (fun c -> c.Metrics.log_forces <- c.Metrics.log_forces + 1);
  if Recorder.enabled t.obs then
    Recorder.emit t.obs ~time:(now t) ~node:m.Metrics.node Event.Log_force
      ([ ("bytes", Event.Int bytes); ("dur", Event.Float dt) ]
      @ match durable with Some d -> [ ("durable", Event.Int d) ] | None -> [])

let charge_log_force_shared t m ?durable ~bytes ~sharers () =
  let dt = log_force_cost t ~bytes in
  Clock.advance t.clock dt;
  busy t m dt;
  both t m (fun c ->
      c.Metrics.log_forces <- c.Metrics.log_forces + 1;
      c.Metrics.commit_batches <- c.Metrics.commit_batches + 1;
      c.Metrics.batched_commits <- c.Metrics.batched_commits + sharers);
  if Recorder.enabled t.obs then
    Recorder.emit t.obs ~time:(now t) ~node:m.Metrics.node Event.Log_force
      ([ ("bytes", Event.Int bytes); ("dur", Event.Float dt); ("sharers", Event.Int sharers) ]
      @ match durable with Some d -> [ ("durable", Event.Int d) ] | None -> [])

let charge_log_scan_record t m ~bytes =
  let dt = t.config.cpu_per_log_record +. (t.config.disk_per_byte *. float_of_int bytes) in
  Clock.advance t.clock dt;
  busy t m dt;
  both t m (fun c ->
      c.Metrics.recovery_log_records_scanned <- c.Metrics.recovery_log_records_scanned + 1)

let charge_lock_op t m =
  Clock.advance t.clock t.config.cpu_per_lock_op;
  busy t m t.config.cpu_per_lock_op

let charge_cpu t dt = Clock.advance t.clock dt

let charge_cpu_for t m dt =
  Clock.advance t.clock dt;
  busy t m dt
