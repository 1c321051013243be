type t = {
  mutable buf : Bytes.t;
      (* logical offset i is [buf.[i]], history kept in memory; bytes at
         and past [len] are stale and never readable *)
  mutable len : int;
  mutable durable : int;
  mutable low_water : int;
  mutable suspect : int option;
  mutable verified_lo : int;
  mutable verified_hi : int;
      (* [verified_lo, verified_hi): every frame wholly inside passed the
         log manager's full check since its bytes last changed; empty
         when [verified_lo = verified_hi], and [verified_hi <= len] *)
  capacity : int option;
}

exception Log_full

let create ?capacity () =
  {
    buf = Bytes.create 4096;
    len = 0;
    durable = 0;
    low_water = 0;
    suspect = None;
    verified_lo = 0;
    verified_hi = 0;
    capacity;
  }

let end_offset t = t.len
let durable_offset t = t.durable
let low_water t = t.low_water
let used t = end_offset t - t.low_water

let available t =
  match t.capacity with None -> None | Some cap -> Some (max 0 (cap - used t))

let append ?(overdraft = false) t s =
  let n = String.length s in
  (match t.capacity with
  | Some cap when (not overdraft) && used t + n > cap -> raise Log_full
  | Some _ | None -> ());
  let off = t.len in
  if off + n > Bytes.length t.buf then begin
    let grown = Bytes.create (max (off + n) (2 * Bytes.length t.buf)) in
    Bytes.blit t.buf 0 grown 0 off;
    t.buf <- grown
  end;
  Bytes.blit_string s 0 t.buf off n;
  t.len <- off + n;
  off

let force t ~upto =
  let target = min upto (end_offset t) in
  if target <= t.durable then 0
  else begin
    let moved = target - t.durable in
    t.durable <- target;
    moved
  end

let view t ~pos ~len =
  if pos < t.low_water then
    invalid_arg (Printf.sprintf "Log_device.read: offset %d below low water %d" pos t.low_water);
  if pos < 0 || len < 0 || pos + len > end_offset t then
    invalid_arg (Printf.sprintf "Log_device.read: [%d,%d) beyond end %d" pos (pos + len) (end_offset t));
  Bytes.unsafe_to_string t.buf

let read t ~pos ~len = String.sub (view t ~pos ~len) pos len

let verified t ~pos ~len = pos >= t.verified_lo && pos + len <= t.verified_hi

let extend_verified t ~lo ~hi =
  if lo < hi then
    if hi > end_offset t then
      invalid_arg (Printf.sprintf "Log_device.extend_verified: %d beyond end %d" hi (end_offset t))
    else if lo <= t.verified_hi && t.verified_lo <= hi then begin
      t.verified_lo <- min lo t.verified_lo;
      t.verified_hi <- max hi t.verified_hi
    end
    else begin
      t.verified_lo <- lo;
      t.verified_hi <- hi
    end

(* Every byte at and past [off] may change: the range keeps only what
   lies below it. *)
let lower_verified t off = if off < t.verified_hi then t.verified_hi <- max t.verified_lo off

let truncate_to t off =
  if off > t.low_water then t.low_water <- min off t.durable

let crash ?(keep_tail = 0) t =
  lower_verified t t.durable;
  let tail = end_offset t - t.durable in
  let kept_tail = min (max 0 keep_tail) tail in
  t.len <- t.durable + kept_tail;
  if kept_tail > 0 then begin
    (* The surviving torn bytes start at the old durable boundary; keep
       the earliest suspect point across repeated crashes. *)
    (match t.suspect with
    | None -> t.suspect <- Some t.durable
    | Some s -> t.suspect <- Some (min s t.durable));
    t.durable <- t.durable + kept_tail
  end

let scribble t ~pos =
  if pos < 0 || pos >= end_offset t then
    invalid_arg (Printf.sprintf "Log_device.scribble: offset %d beyond end %d" pos (end_offset t));
  lower_verified t pos;
  Bytes.set t.buf pos (Char.chr (Char.code (Bytes.get t.buf pos) lxor 0xFF))

let trim_end t off =
  if off < t.low_water || off > end_offset t then
    invalid_arg
      (Printf.sprintf "Log_device.trim_end: offset %d outside [%d,%d]" off t.low_water
         (end_offset t));
  lower_verified t off;
  t.len <- off;
  t.durable <- min t.durable off

let suspect t = t.suspect
let clear_suspect t = t.suspect <- None
