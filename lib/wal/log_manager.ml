module Codec = Repro_util.Codec
module Crc32 = Repro_util.Crc32
module Env = Repro_sim.Env
module Log_device = Repro_storage.Log_device
module Page_id = Repro_storage.Page_id

type t = {
  env : Env.t;
  metrics : Repro_sim.Metrics.t;
  device : Log_device.t;
  mutable after_force : unit -> unit;
}

exception Log_full

let header_size = 8

let create env metrics ?capacity () =
  { env; metrics; device = Log_device.create ?capacity (); after_force = ignore }

let device t = t.device
let set_after_force t f = t.after_force <- f

(* A frame stores the low 31 bits of its payload's CRC. *)
let frame_crc b ~pos ~len = Crc32.sub b ~pos ~len land 0x7FFF_FFFF
let u32_at b pos = Int32.to_int (String.get_int32_le b pos) land 0xFFFF_FFFF
let int_at b pos = Int64.to_int (String.get_int64_le b pos)

(* One scratch pass builds the whole frame: a placeholder header, then
   the payload; the header is patched in place once the payload's length
   and CRC are known. *)
let append ?overdraft t record =
  let framed =
    Codec.with_scratch (fun e ->
        Codec.u32 e 0;
        Codec.u32 e 0;
        Record.encode e record)
  in
  let len = Bytes.length framed - header_size in
  Bytes.set_int32_le framed 0 (Int32.of_int len);
  Bytes.set_int32_le framed 4
    (Int32.of_int (frame_crc (Bytes.unsafe_to_string framed) ~pos:header_size ~len));
  let lsn =
    try Log_device.append ?overdraft t.device (Bytes.unsafe_to_string framed)
    with Log_device.Log_full -> raise Log_full
  in
  Env.charge_log_append t.env t.metrics ~bytes:(Bytes.length framed);
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
  end;
  t.after_force ()

let force_all t = force t ~upto:(end_lsn t - 1)

let force_shared t ~upto ~sharers =
  if upto >= durable_lsn t then begin
    let moved = Log_device.force t.device ~upto:(end_lsn t) in
    if moved > 0 then
      Env.charge_log_force_shared t.env t.metrics ~durable:(durable_lsn t) ~bytes:moved ~sharers ()
  end;
  t.after_force ()

(* The frame check, in place in the device's bytes: range (and, through
   [Log_device.view], the low-water mark) and truncation always; then,
   unless the frame lies wholly inside the device's verified range, the
   CRC and the record's structure, which must fill the payload exactly.
   It allocates nothing: on success [d] is reframed over the payload,
   cursor at its start, and the result is the framed size. *)
let check_frame t d lsn =
  let stop = end_lsn t in
  if lsn < 0 || lsn + header_size > stop then
    raise (Codec.Corrupt (Printf.sprintf "frame header out of range at %d" lsn));
  let header = Log_device.view t.device ~pos:lsn ~len:header_size in
  let len = u32_at header lsn in
  let pos = lsn + header_size in
  if pos + len > stop then raise (Codec.Corrupt (Printf.sprintf "truncated frame at %d" lsn));
  let src = Log_device.view t.device ~pos ~len in
  Codec.reframe d src ~pos ~len;
  if not (Log_device.verified t.device ~pos:lsn ~len:(header_size + len)) then begin
    if frame_crc src ~pos ~len <> u32_at header (lsn + 4) then
      raise (Codec.Corrupt (Printf.sprintf "CRC mismatch at %d" lsn));
    Record.skip d;
    if Codec.remaining d > 0 then
      raise
        (Codec.Corrupt (Printf.sprintf "%d trailing bytes in frame at %d" (Codec.remaining d) lsn));
    Codec.reframe d src ~pos ~len
  end;
  header_size + len

let read t lsn =
  let d = Codec.decoder "" in
  ignore (check_frame t d lsn);
  Env.charge_cpu t.env (Env.config t.env).Repro_sim.Config.cpu_per_log_record;
  Record.decode d

(* The head fields of the payload at [pos] of [b], read in place at
   their fixed offsets: the kind, and whether it names a page. *)
let kind_at b pos = Record.kind_of_tag (String.get_uint8 b (pos + Record.tag_offset))

let is_page : Record.Kind.t -> bool = function
  | Update | Clr -> true
  | Commit | Abort | Savepoint | Checkpoint_begin | Checkpoint_end -> false

(* [read_op]'s decoder, shared by every log: reframed over [""] after
   each read, so it keeps no log's bytes alive between reads.  Once the
   frame check passes, the in-place reads and the op's decode cannot
   fail. *)
let op_decoder = Codec.decoder ""
let release d = Codec.reframe d "" ~pos:0 ~len:0

let read_op t lsn ~pid ~psn_before =
  let d = op_decoder in
  match check_frame t d lsn with
  | exception (Codec.Corrupt _ as e) ->
    release d;
    raise e
  | size ->
    Env.charge_cpu t.env (Env.config t.env).Repro_sim.Config.cpu_per_log_record;
    let pos = lsn + header_size in
    let b = Log_device.view t.device ~pos ~len:(size - header_size) in
    if
      not
        (is_page (kind_at b pos)
        && u32_at b (pos + Record.owner_offset) = pid.Page_id.owner
        && u32_at b (pos + Record.slot_offset) = pid.slot
        && int_at b (pos + Record.psn_before_offset) = psn_before)
    then begin
      release d;
      invalid_arg
        (Printf.sprintf "Log_manager.read_op: no update of page %s with PSN %d at LSN %d"
           (Page_id.to_string pid) psn_before lsn)
    end;
    Codec.skip d Record.op_offset;
    let op = Record.decode_op d in
    release d;
    op

let next_lsn t lsn = lsn + check_frame t (Codec.decoder "") lsn

(* The forward scan under [fold], [fold_heads] and [seal]: one decoder
   for the whole scan; [visit acc lsn size d] sees each checked frame's
   framed size and payload.  The frames it passed, one after another
   from [start], join the device's verified range. *)
let scan t ?upto ~from ~init visit =
  let stop = match upto with Some u -> u | None -> end_lsn t in
  let start = if Lsn.is_nil from then low_water t else from in
  let d = Codec.decoder "" in
  let rec go acc lsn =
    (* size 0 ends the run: at [stop], or at a frame that fails its
       check (a torn tail, treated as the end of the log) *)
    let size =
      if lsn >= stop then 0
      else match check_frame t d lsn with size -> size | exception Codec.Corrupt _ -> 0
    in
    if size = 0 then begin
      Log_device.extend_verified t.device ~lo:start ~hi:lsn;
      acc
    end
    else begin
      Env.charge_log_scan_record t.env t.metrics ~bytes:size;
      go (visit acc lsn size d) (lsn + size)
    end
  in
  go init start

let fold t ?upto ~from ~init f =
  scan t ?upto ~from ~init (fun acc lsn _ d -> f acc lsn (Record.decode d))

(* The head fields are read in place at their fixed offsets; a kind
   other than [Update] and [Clr] gets 0 for the page fields. *)
let fold_heads t ?upto ~from ~init f =
  scan t ?upto ~from ~init (fun acc lsn size _ ->
      let pos = lsn + header_size in
      let b = Log_device.view t.device ~pos ~len:(size - header_size) in
      let kind = kind_at b pos in
      let page = is_page kind in
      f acc lsn ~txn:(int_at b (pos + Record.txn_offset)) ~kind
        ~owner:(if page then u32_at b (pos + Record.owner_offset) else 0)
        ~slot:(if page then u32_at b (pos + Record.slot_offset) else 0)
        ~psn_before:(if page then int_at b (pos + Record.psn_before_offset) else 0))

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
          let header = Log_device.view t.device ~pos:dur ~len:header_size in
          let framed = header_size + u32_at header dur in
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
    let good = scan t ~from:start ~init:start (fun _ lsn size _ -> lsn + size) in
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
