open Repro_storage
module Lsn = Repro_wal.Lsn

type frame = {
  page : Page.t;
  mutable dirty : bool;
  mutable pin_count : int;
  mutable rec_lsn : Lsn.t;
  mutable last_lsn : Lsn.t;
  slot : int;
}

(* Recency order is a circular doubly linked list over frame slots
   [0 .. capacity - 1], kept in [int] arrays so relinking a slot stores
   no pointer (no write barrier on the hit path).  Slot [capacity] is
   the list head: [next.(head)] is the least recently used slot,
   [prev.(head)] the most recently used.  Vacant slots are chained
   through [next] from [free]. *)
type t = {
  capacity : int;
  frames : frame Page_id.Tbl.t;
  slots : frame array;
  prev : int array;
  next : int array;
  mutable free : int;
  mutable tracer : string -> Page_id.t -> unit;
}

let no_trace _ _ = ()

(* Fills vacant slots so an evicted page is not kept alive. *)
let vacant =
  {
    page = Page.create ~id:(Page_id.make ~owner:(-1) ~slot:(-1)) ~psn:0 ~size:0;
    dirty = false;
    pin_count = 0;
    rec_lsn = Lsn.nil;
    last_lsn = Lsn.nil;
    slot = -1;
  }

(* Empty recency list; every slot on the free chain. *)
let reset_slots t =
  let head = t.capacity in
  t.prev.(head) <- head;
  t.next.(head) <- head;
  for s = 0 to t.capacity - 1 do
    t.slots.(s) <- vacant;
    t.next.(s) <- s + 1
  done;
  t.next.(t.capacity - 1) <- -1;
  t.free <- 0

let create ~capacity () =
  if capacity <= 0 then invalid_arg "Buffer_pool.create: capacity must be positive";
  let t =
    {
      capacity;
      frames = Page_id.Tbl.create capacity;
      slots = Array.make capacity vacant;
      prev = Array.make (capacity + 1) 0;
      next = Array.make (capacity + 1) 0;
      free = 0;
      tracer = no_trace;
    }
  in
  reset_slots t;
  t

let set_tracer t f = t.tracer <- f

let size t = Page_id.Tbl.length t.frames
let is_full t = size t >= t.capacity

let unlink t s =
  let p = t.prev.(s) and n = t.next.(s) in
  t.next.(p) <- n;
  t.prev.(n) <- p

(* Link [s] at the most recently used end. *)
let link_mru t s =
  let head = t.capacity in
  let last = t.prev.(head) in
  t.prev.(s) <- last;
  t.next.(s) <- head;
  t.next.(last) <- s;
  t.prev.(head) <- s

let touch t frame =
  let s = frame.slot in
  if t.prev.(t.capacity) <> s then begin
    unlink t s;
    link_mru t s
  end

let find t pid =
  let found = Page_id.Tbl.find_opt t.frames pid in
  (match found with Some frame -> touch t frame | None -> ());
  found

let peek t pid = Page_id.Tbl.find_opt t.frames pid
let contains t pid = Page_id.Tbl.mem t.frames pid

let install t page =
  let pid = Page.id page in
  if contains t pid then
    invalid_arg (Format.asprintf "Buffer_pool.install: %a already cached" Page_id.pp pid);
  if is_full t then invalid_arg "Buffer_pool.install: pool full, evict first";
  let slot = t.free in
  t.free <- t.next.(slot);
  let frame =
    { page; dirty = false; pin_count = 0; rec_lsn = Lsn.nil; last_lsn = Lsn.nil; slot }
  in
  t.slots.(slot) <- frame;
  link_mru t slot;
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

let choose_victim t =
  let head = t.capacity in
  let rec walk s =
    if s = head then None
    else
      let frame = t.slots.(s) in
      if frame.pin_count = 0 then Some frame else walk t.next.(s)
  in
  walk t.next.(head)

let remove t pid =
  match Page_id.Tbl.find_opt t.frames pid with
  | None -> ()
  | Some frame ->
    t.tracer "evict" pid;
    Page_id.Tbl.remove t.frames pid;
    let s = frame.slot in
    unlink t s;
    t.slots.(s) <- vacant;
    t.next.(s) <- t.free;
    t.free <- s

let cached_ids t = Page_id.Tbl.fold (fun pid _ acc -> pid :: acc) t.frames []

let cached_ids_owned_by t owner =
  Page_id.Tbl.fold
    (fun pid _ acc -> if Page_id.owner pid = owner then pid :: acc else acc)
    t.frames []

let dirty_frames t = Page_id.Tbl.fold (fun _ f acc -> if f.dirty then f :: acc else acc) t.frames []
let clear t =
  Page_id.Tbl.reset t.frames;
  reset_slots t
