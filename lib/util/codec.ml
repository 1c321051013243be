exception Corrupt of string

let corrupt fmt = Format.kasprintf (fun s -> raise (Corrupt s)) fmt

type encoder = Buffer.t

let encoder () = Buffer.create 128
let to_string = Buffer.contents
(* One process-wide scratch encoder, reused by the log-append hot path
   instead of allocating a fresh [Buffer.t] per record.  Safe because
   the simulator is single-threaded and callers never nest
   [with_scratch] (each call materialises its bytes before returning,
   so the buffer is free again). *)
let scratch = Buffer.create 512

let fill_scratch f =
  Buffer.clear scratch;
  f scratch

let with_scratch f =
  fill_scratch f;
  Buffer.to_bytes scratch

let measure f =
  fill_scratch f;
  Buffer.length scratch

let u8 e v = Buffer.add_uint8 e (v land 0xFF)

let u32 e v =
  assert (v >= 0);
  Buffer.add_int32_le e (Int32.of_int v)

let i64 e v = Buffer.add_int64_le e v
let int_as_i64 e v = Buffer.add_int64_le e (Int64.of_int v)

let bytes e s =
  u32 e (String.length s);
  Buffer.add_string e s

let list f e xs =
  u32 e (List.length xs);
  List.iter (f e) xs

(* [stop] bounds the cursor: a decoder over one frame of a larger
   buffer cannot read into the next frame. *)
type decoder = { mutable src : string; mutable cur : int; mutable stop : int }

let check_slice fn src pos stop =
  if pos < 0 || stop < pos || stop > String.length src then
    invalid_arg
      (Printf.sprintf "Codec.%s: [%d,%d) outside a %d-byte source" fn pos stop (String.length src))

let decoder ?(pos = 0) ?len src =
  let stop = match len with None -> String.length src | Some len -> pos + len in
  check_slice "decoder" src pos stop;
  { src; cur = pos; stop }

let reframe d src ~pos ~len =
  check_slice "reframe" src pos (pos + len);
  d.src <- src;
  d.cur <- pos;
  d.stop <- pos + len

let remaining d = d.stop - d.cur

let truncated d n = corrupt "truncated input: need %d bytes, have %d" n (remaining d)

(* Inlined into every read and skip: only the failure path is a call. *)
let[@inline] need d n = if d.stop - d.cur < n then truncated d n

let read_u8 d =
  need d 1;
  let v = String.get_uint8 d.src d.cur in
  d.cur <- d.cur + 1;
  v

let read_u32 d =
  need d 4;
  let v = Int32.to_int (String.get_int32_le d.src d.cur) land 0xFFFF_FFFF in
  d.cur <- d.cur + 4;
  v

let read_i64 d =
  need d 8;
  let v = String.get_int64_le d.src d.cur in
  d.cur <- d.cur + 8;
  v

(* Not [Int64.to_int (read_i64 d)]: the call would box the int64 on
   every LSN, PSN and txn id the log decodes. *)
let read_int_as_i64 d =
  need d 8;
  let v = Int64.to_int (String.get_int64_le d.src d.cur) in
  d.cur <- d.cur + 8;
  v

let read_bytes d =
  let len = read_u32 d in
  need d len;
  let s = String.sub d.src d.cur len in
  d.cur <- d.cur + len;
  s

(* The skips make exactly the bounds checks of the reads they stand
   for, so a skip raises [Corrupt] where the read would. *)
let skip d n =
  need d n;
  d.cur <- d.cur + n

let skip_bytes d = skip d (read_u32 d)

let read_list f d =
  let len = read_u32 d in
  if len > remaining d then corrupt "bad list length %d" len;
  List.init len (fun _ -> f d)

let skip_list f d =
  let len = read_u32 d in
  if len > remaining d then corrupt "bad list length %d" len;
  for _ = 1 to len do
    f d
  done
