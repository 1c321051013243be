open Repro_storage
module Lsn = Repro_wal.Lsn

type frame = {
  page : Page.t;
  mutable dirty : bool;
  mutable pin_count : int;
  mutable rec_lsn : Lsn.t;
  mutable last_lsn : Lsn.t;
  mutable last_use : int;
}

type t = {
  capacity : int;
  frames : frame Page_id.Tbl.t;
  mutable tick : int;
  mutable tracer : string -> Page_id.t -> unit;
}

let no_trace _ _ = ()

let create ~capacity () =
  if capacity <= 0 then invalid_arg "Buffer_pool.create: capacity must be positive";
  {
    capacity;
    frames = Page_id.Tbl.create capacity;
    tick = 0;
    tracer = no_trace;
  }

let set_tracer t f = t.tracer <- f

let capacity t = t.capacity
let size t = Page_id.Tbl.length t.frames
let is_full t = size t >= t.capacity

let touch t frame =
  t.tick <- t.tick + 1;
  frame.last_use <- t.tick

let find t pid =
  match Page_id.Tbl.find_opt t.frames pid with
  | None -> None
  | Some frame ->
    touch t frame;
    Some frame

let peek t pid = Page_id.Tbl.find_opt t.frames pid
let contains t pid = Page_id.Tbl.mem t.frames pid

let install t page =
  let pid = Page.id page in
  if contains t pid then
    invalid_arg (Format.asprintf "Buffer_pool.install: %a already cached" Page_id.pp pid);
  if is_full t then invalid_arg "Buffer_pool.install: pool full, evict first";
  let frame =
    { page; dirty = false; pin_count = 0; rec_lsn = Lsn.nil; last_lsn = Lsn.nil; last_use = 0 }
  in
  touch t frame;
  Page_id.Tbl.replace t.frames pid frame;
  t.tracer "install" pid;
  frame

let mark_dirty frame ~lsn =
  if not frame.dirty then begin
    frame.dirty <- true;
    frame.rec_lsn <- lsn
  end;
  frame.last_lsn <- lsn

let pin frame = frame.pin_count <- frame.pin_count + 1

let unpin frame =
  if frame.pin_count <= 0 then invalid_arg "Buffer_pool.unpin: not pinned";
  frame.pin_count <- frame.pin_count - 1

let victims t = Page_id.Tbl.fold (fun _ f acc -> if f.pin_count = 0 then f :: acc else acc) t.frames []

let choose_victim t =
  match victims t with
  | [] -> None
  | hd :: _ as candidates ->
    Some
      (List.fold_left (fun best f -> if f.last_use < best.last_use then f else best) hd candidates)

let remove t pid =
  if contains t pid then begin
    t.tracer "evict" pid;
    Page_id.Tbl.remove t.frames pid
  end

let cached_ids t = Page_id.Tbl.fold (fun pid _ acc -> pid :: acc) t.frames []
let dirty_frames t = Page_id.Tbl.fold (fun _ f acc -> if f.dirty then f :: acc else acc) t.frames []
let iter t f = Page_id.Tbl.iter (fun _ frame -> f frame) t.frames

let clear t = Page_id.Tbl.reset t.frames
