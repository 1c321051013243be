(* An open span: what [span_end] needs to emit its [span.end] event. *)
type span = {
  id : int;
  name : string;
  node : int;
  parent : int;  (** -1 = root *)
  start : float;
}

type t = {
  mutable enabled : bool;
  capacity : int;
  mutable ring : Event.t option array;  (** [[||]] until the first push *)
  mutable head : int;  (** next write slot *)
  mutable stored : int;  (** events currently in the ring *)
  mutable dropped : int;  (** overwritten by ring wrap-around *)
  mutable next_span : int;
  mutable open_spans : span list;  (** innermost first; per-recorder stack *)
  mutable ctx_txn : int;  (** causal context: acting transaction, -1 = none *)
  mutable ctx_span : int;  (** causal context: that transaction's span *)
  hists : (string * int, Log_hist.t) Hashtbl.t;
}

let default_capacity = 1 lsl 16

let create ?(enabled = false) ?(capacity = default_capacity) () =
  if capacity <= 0 then invalid_arg "Recorder.create: capacity must be positive";
  {
    enabled;
    capacity;
    ring = [||];
    head = 0;
    stored = 0;
    dropped = 0;
    next_span = 0;
    open_spans = [];
    ctx_txn = -1;
    ctx_span = -1;
    hists = Hashtbl.create 16;
  }

let enabled t = t.enabled
let set_enabled t on = t.enabled <- on
let dropped t = t.dropped

let push t e =
  if Array.length t.ring = 0 then t.ring <- Array.make t.capacity None;
  if t.ring.(t.head) <> None then t.dropped <- t.dropped + 1
  else t.stored <- t.stored + 1;
  t.ring.(t.head) <- Some e;
  t.head <- (t.head + 1) mod t.capacity

let current_span t = match t.open_spans with [] -> -1 | s :: _ -> s.id

(* ---- causal context ----

   A (txn, span) pair dynamically scoped around every operation a
   transaction performs.  The single [open_spans] stack cannot attribute
   events of interleaved transactions (innermost-open is whichever txn
   began last); the explicit context can.  Callers save [context],
   [set_context], and restore — nesting (a commit completing inside
   another transaction's batch flush) keeps attribution exact. *)

let context t = (t.ctx_txn, t.ctx_span)

let set_context t ~txn ~span =
  t.ctx_txn <- txn;
  t.ctx_span <- span

let emit t ~time ~node kind attrs =
  if t.enabled then begin
    let span = if t.ctx_span >= 0 then t.ctx_span else current_span t in
    push t (Event.make ~time ~node ~span ~txn:t.ctx_txn kind attrs)
  end

let events t =
  (* oldest first: the ring wraps at [head] *)
  let out = ref [] in
  let n = Array.length t.ring in
  for i = n - 1 downto 0 do
    let slot = (t.head + i) mod n in
    match t.ring.(slot) with None -> () | Some e -> out := e :: !out
  done;
  !out

(* ---- spans ---- *)

let span_begin t ~time ~node ?parent name =
  if not t.enabled then -1
  else begin
    let parent = match parent with Some p -> p | None -> current_span t in
    let id = t.next_span in
    t.next_span <- id + 1;
    let s = { id; name; node; parent; start = time } in
    t.open_spans <- s :: t.open_spans;
    push t
      (Event.make ~time ~node ~span:parent Event.Span_begin
         [ ("id", Event.Int id); ("name", Event.Str name) ]);
    id
  end

let span_end t ~time id =
  if t.enabled && id >= 0 then begin
    (match List.find_opt (fun s -> s.id = id) t.open_spans with
    | None -> ()
    | Some s ->
      t.open_spans <- List.filter (fun o -> o.id <> id) t.open_spans;
      push t
        (Event.make ~time ~node:s.node ~span:s.parent Event.Span_end
           [ ("id", Event.Int id); ("name", Event.Str s.name);
             ("dur", Event.Float (time -. s.start)) ]))
  end

(* ---- histograms (always on: they never touch the sim clock or the
   Metrics counters, so traced and untraced runs stay identical) ---- *)

let find_hist t ~name ~node = Hashtbl.find_opt t.hists (name, node)

let hist t ~name ~node =
  match Hashtbl.find_opt t.hists (name, node) with
  | Some h -> h
  | None ->
    let h = Log_hist.create () in
    Hashtbl.add t.hists (name, node) h;
    h

let observe t ~name ~node v =
  Log_hist.record (hist t ~name ~node) v;
  if node >= 0 then Log_hist.record (hist t ~name ~node:(-1)) v

let histograms t =
  Hashtbl.fold (fun (name, node) h acc -> (name, node, h) :: acc) t.hists []
  |> List.sort (fun (n1, d1, _) (n2, d2, _) ->
         match String.compare n1 n2 with 0 -> Int.compare d1 d2 | c -> c)

(* ---- export ---- *)

(* Draining appends a [trace.dropped] summary line when the ring
   overflowed, so consumers of an exported trace can tell it is a
   suffix, not the whole run. *)
let drain t =
  let evs = events t in
  if t.dropped = 0 then evs
  else begin
    let last_time = List.fold_left (fun acc (e : Event.t) -> Float.max acc e.Event.time) 0. evs in
    evs
    @ [
        Event.make ~time:last_time ~node:(-1) Event.Trace_dropped
          [ ("count", Event.Int t.dropped); ("capacity", Event.Int t.capacity) ];
      ]
  end

let to_jsonl t =
  let buf = Buffer.create 4096 in
  List.iter
    (fun e ->
      Buffer.add_string buf (Json.to_string (Event.to_json e));
      Buffer.add_char buf '\n')
    (drain t);
  Buffer.contents buf

let histograms_json t =
  let per_name = Hashtbl.create 8 in
  List.iter
    (fun (name, node, h) ->
      let entry = try Hashtbl.find per_name name with Not_found -> [] in
      let key = if node < 0 then "cluster" else Printf.sprintf "node%d" node in
      Hashtbl.replace per_name name ((key, Log_hist.to_json h) :: entry))
    (histograms t);
  let names =
    Hashtbl.fold (fun name _ acc -> name :: acc) per_name [] |> List.sort String.compare
  in
  Json.Obj (List.map (fun name -> (name, Json.Obj (List.rev (Hashtbl.find per_name name)))) names)
