module Codec = Repro_util.Codec
module Crc32 = Repro_util.Crc32
module Env = Repro_sim.Env
module Log_device = Repro_storage.Log_device

type t = { env : Env.t; metrics : Repro_sim.Metrics.t; device : Log_device.t }

exception Log_full

let header_size = 8

let create env metrics ?capacity () = { env; metrics; device = Log_device.create ?capacity () }

let frame payload =
  let header =
    Codec.with_scratch (fun e ->
        Codec.u32 e (String.length payload);
        Codec.u32 e (Int32.to_int (Int32.logand (Crc32.string payload) 0x7FFFFFFFl)))
  in
  header ^ payload

let append ?overdraft t record =
  let payload = Record.encode record in
  let framed = frame payload in
  let lsn =
    try Log_device.append ?overdraft t.device framed
    with Log_device.Log_full -> raise Log_full
  in
  Env.charge_log_append t.env t.metrics ~bytes:(String.length framed);
  lsn

let end_lsn t = Log_device.end_offset t.device
let durable_lsn t = Log_device.durable_offset t.device
let low_water t = Log_device.low_water t.device

let force t ~upto =
  (* [upto] is a record's LSN; everything through the end of that record
     must become durable.  Forcing to the device end is safe and models a
     block-grained force. *)
  if upto >= durable_lsn t then begin
    let moved = Log_device.force t.device ~upto:(end_lsn t) in
    if moved > 0 then Env.charge_log_force t.env t.metrics ~durable:(durable_lsn t) ~bytes:moved ()
  end

let force_all t = force t ~upto:(end_lsn t - 1)

let force_shared t ~upto ~sharers =
  if upto >= durable_lsn t then begin
    let moved = Log_device.force t.device ~upto:(end_lsn t) in
    if moved > 0 then
      Env.charge_log_force_shared t.env t.metrics ~durable:(durable_lsn t) ~bytes:moved ~sharers ()
  end

let read_frame t lsn =
  if lsn < 0 || lsn + header_size > end_lsn t then
    raise (Codec.Corrupt (Printf.sprintf "frame header out of range at %d" lsn));
  let header = Log_device.read t.device ~pos:lsn ~len:header_size in
  let d = Codec.decoder header in
  let len = Codec.read_u32 d in
  let crc = Codec.read_u32 d in
  if lsn + header_size + len > end_lsn t then
    raise (Codec.Corrupt (Printf.sprintf "truncated frame at %d" lsn));
  let payload = Log_device.read t.device ~pos:(lsn + header_size) ~len in
  if Int32.to_int (Int32.logand (Crc32.string payload) 0x7FFFFFFFl) <> crc then
    raise (Codec.Corrupt (Printf.sprintf "CRC mismatch at %d" lsn));
  (Record.decode payload, header_size + len)

let read t lsn =
  let record, size = read_frame t lsn in
  Env.charge_cpu t.env (Env.config t.env).Repro_sim.Config.cpu_per_log_record;
  ignore size;
  record

let next_lsn t lsn =
  let _, size = read_frame t lsn in
  lsn + size

let fold t ?upto ~from ~init f =
  let stop = match upto with Some u -> u | None -> end_lsn t in
  let start = if Lsn.is_nil from then low_water t else from in
  let rec go acc lsn =
    if lsn >= stop then acc
    else
      match read_frame t lsn with
      | record, size ->
        Env.charge_log_scan_record t.env t.metrics ~bytes:size;
        go (f acc lsn record) (lsn + size)
      | exception Codec.Corrupt _ -> acc (* torn tail: treat as end of log *)
  in
  go init start

let used_bytes t = Log_device.used t.device
let available_bytes t = Log_device.available t.device
let truncate_to t lsn = if not (Lsn.is_nil lsn) then Log_device.truncate_to t.device lsn

let crash ?faults t =
  let dur = Log_device.durable_offset t.device in
  let tail = Log_device.end_offset t.device - dur in
  let torn =
    match faults with
    | Some inj when tail > 0 ->
      let first_framed =
        if tail >= header_size then begin
          let hdr = Log_device.read t.device ~pos:dur ~len:header_size in
          let d = Codec.decoder hdr in
          let len = Codec.read_u32 d in
          let framed = header_size + len in
          if framed <= tail then Some framed else None
        end
        else None
      in
      Repro_fault.Injector.on_crash_tail inj ~tail_len:tail ~header:header_size ~first_framed
    | Some _ | None -> None
  in
  match torn with
  | None -> Log_device.crash t.device
  | Some { Repro_fault.Injector.keep; flip } ->
    Log_device.crash ~keep_tail:keep t.device;
    (match flip with
    | Some off -> Log_device.scribble t.device ~pos:(dur + off)
    | None -> ());
    t.metrics.Repro_sim.Metrics.torn_crashes <- t.metrics.torn_crashes + 1;
    Env.emit t.env ~node:t.metrics.Repro_sim.Metrics.node Repro_obs.Event.Fault_torn
      [ ("kept", Repro_obs.Event.Int keep) ]

let seal t =
  match Log_device.suspect t.device with
  | None -> 0
  | Some from ->
    let start = max from (Log_device.low_water t.device) in
    let stop = Log_device.end_offset t.device in
    let rec scan lsn =
      if lsn >= stop then lsn
      else
        match read_frame t lsn with
        | _, size ->
          Env.charge_log_scan_record t.env t.metrics ~bytes:size;
          scan (lsn + size)
        | exception Codec.Corrupt _ -> lsn
    in
    let good = scan start in
    let discarded = stop - good in
    if discarded > 0 then begin
      Log_device.trim_end t.device good;
      t.metrics.Repro_sim.Metrics.torn_bytes_discarded <-
        t.metrics.torn_bytes_discarded + discarded;
      Env.emit t.env ~node:t.metrics.Repro_sim.Metrics.node Repro_obs.Event.Fault_torn
        [ ("discarded", Repro_obs.Event.Int discarded) ]
    end;
    Log_device.clear_suspect t.device;
    discarded
