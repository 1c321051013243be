(* The histograms of one metric name: the cluster aggregate and one per
   node, indexed by node id, so [observe] reaches them without hashing
   a key. *)
type family = {
  name : string;
  mutable cluster : Log_hist.t option;
  mutable per_node : Log_hist.t option array;
}

type t = {
  mutable enabled : bool;
  capacity : int;
  mutable ring : Event.t option array;  (** [[||]] until the first push *)
  mutable head : int;  (** next write slot *)
  mutable dropped : int;  (** overwritten by ring wrap-around *)
  mutable ctx_txn : int;  (** causal context: acting transaction, -1 = none *)
  mutable families : family list;  (** in creation order, newest first *)
}

let default_capacity = 1 lsl 16

let create ?(enabled = false) ?(capacity = default_capacity) () =
  if capacity <= 0 then invalid_arg "Recorder.create: capacity must be positive";
  {
    enabled;
    capacity;
    ring = [||];
    head = 0;
    dropped = 0;
    ctx_txn = -1;
    families = [];
  }

let enabled t = t.enabled
let set_enabled t on = t.enabled <- on
let dropped t = t.dropped

let push t e =
  if Array.length t.ring = 0 then t.ring <- Array.make t.capacity None;
  if Option.is_some t.ring.(t.head) then t.dropped <- t.dropped + 1;
  t.ring.(t.head) <- Some e;
  t.head <- (t.head + 1) mod t.capacity

(* The causal context: the acting transaction, dynamically scoped
   around every operation it performs.  Callers save [context],
   [set_context] and restore, so nesting (a commit completing inside
   another transaction's batch flush) keeps attribution exact. *)
let context t = t.ctx_txn
let set_context t ~txn = t.ctx_txn <- txn

let emit t ~time ~node kind attrs =
  if t.enabled then push t (Event.make ~time ~node ~txn:t.ctx_txn kind attrs)

(* Oldest first: the ring wraps at [head].  An overflowed ring ends with
   a [trace.dropped] summary, so every reader can tell a suffix from a
   whole run. *)
let events t =
  let out = ref [] in
  let n = Array.length t.ring in
  for i = n - 1 downto 0 do
    let slot = (t.head + i) mod n in
    match t.ring.(slot) with None -> () | Some e -> out := e :: !out
  done;
  if t.dropped = 0 then !out
  else begin
    let last_time = List.fold_left (fun acc (e : Event.t) -> Float.max acc e.Event.time) 0. !out in
    !out
    @ [
        Event.make ~time:last_time ~node:(-1) Event.Trace_dropped
          [ ("count", Event.Int t.dropped); ("capacity", Event.Int t.capacity) ];
      ]
  end

(* ---- histograms (always on: they never touch the sim clock or the
   Metrics counters, so traced and untraced runs stay identical) ---- *)

let rec find_family name = function
  | [] -> raise Not_found
  | f :: rest -> if String.equal f.name name then f else find_family name rest

let family t name =
  try find_family name t.families
  with Not_found ->
    let f = { name; cluster = None; per_node = [||] } in
    t.families <- f :: t.families;
    f

let find_hist t ~name ~node =
  match find_family name t.families with
  | exception Not_found -> None
  | f ->
    if node = -1 then f.cluster
    else if node >= 0 && node < Array.length f.per_node then f.per_node.(node)
    else None

let cluster_hist f =
  match f.cluster with
  | Some h -> h
  | None ->
    let h = Log_hist.create () in
    f.cluster <- Some h;
    h

let node_hist f node =
  if node >= Array.length f.per_node then begin
    let grown = Array.make (max (node + 1) (2 * Array.length f.per_node)) None in
    Array.blit f.per_node 0 grown 0 (Array.length f.per_node);
    f.per_node <- grown
  end;
  match f.per_node.(node) with
  | Some h -> h
  | None ->
    let h = Log_hist.create () in
    f.per_node.(node) <- Some h;
    h

let observe t ~name ~node v =
  if node < -1 then invalid_arg "Recorder.observe: node must be -1 or a node id";
  let f = family t name in
  if node >= 0 then Log_hist.record (node_hist f node) v;
  Log_hist.record (cluster_hist f) v

let histograms t =
  List.fold_left
    (fun acc f ->
      let acc = match f.cluster with Some h -> (f.name, -1, h) :: acc | None -> acc in
      let acc = ref acc in
      Array.iteri
        (fun node h -> match h with Some h -> acc := (f.name, node, h) :: !acc | None -> ())
        f.per_node;
      !acc)
    [] t.families
  |> List.sort (fun (n1, d1, _) (n2, d2, _) ->
         match String.compare n1 n2 with 0 -> Int.compare d1 d2 | c -> c)

(* ---- export ---- *)

let to_jsonl t =
  let buf = Buffer.create 4096 in
  List.iter
    (fun e ->
      Buffer.add_string buf (Json.to_string (Event.to_json e));
      Buffer.add_char buf '\n')
    (events t);
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
