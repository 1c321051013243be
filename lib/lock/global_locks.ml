open Repro_storage

type t = {
  owner : int;
  table : (int, Mode.t) Hashtbl.t Page_id.Tbl.t;
      (* page -> holder node -> mode.  The fold order of each holder
         table sets the order of callbacks (see [request]), which the
         simulated schedule depends on: keep these tables as they are. *)
  held : Slot_index.t;
      (* (holder, slot) for every lock in [table]: the per-node
         listings below read it instead of folding the whole table *)
  mutable tracer : string -> int -> Page_id.t -> unit;
}

let no_trace _ _ _ = ()
let create ~owner =
  { owner; table = Page_id.Tbl.create 64; held = Slot_index.create (); tracer = no_trace }
let set_tracer t f = t.tracer <- f

let holders_tbl t pid =
  match Page_id.Tbl.find_opt t.table pid with
  | Some h -> h
  | None ->
    let h = Hashtbl.create 4 in
    Page_id.Tbl.replace t.table pid h;
    h

type decision = Granted | Needs_callback of { holders : (int * Mode.t) list }

let holders t ~pid =
  match Page_id.Tbl.find_opt t.table pid with
  | None -> []
  | Some h -> Hashtbl.fold (fun node mode acc -> (node, mode) :: acc) h []

let holder_mode t ~node ~pid =
  match Page_id.Tbl.find_opt t.table pid with
  | None -> None
  | Some h -> Hashtbl.find_opt h node

let request t ~node ~pid ~mode =
  match holder_mode t ~node ~pid with
  | Some held when Mode.covers held mode -> Granted
  | _ ->
    let conflicting =
      match Page_id.Tbl.find_opt t.table pid with
      | None -> []
      | Some h ->
        Hashtbl.fold
          (fun n held acc ->
            if n <> node && not (Mode.compatible held mode) then (n, held) :: acc else acc)
          h []
    in
    if List.is_empty conflicting then Granted else Needs_callback { holders = conflicting }

let grant t ~node ~pid ~mode =
  if Page_id.owner pid <> t.owner then
    invalid_arg
      (Format.asprintf "Global_locks.grant: %a is not owned by node %d" Page_id.pp pid t.owner);
  let h = holders_tbl t pid in
  let new_mode =
    match Hashtbl.find_opt h node with None -> mode | Some held -> Mode.max held mode
  in
  Hashtbl.replace h node new_mode;
  Slot_index.add t.held ~row:node ~slot:pid.Page_id.slot;
  t.tracer "grant" node pid

let release t ~node ~pid =
  match Page_id.Tbl.find_opt t.table pid with
  | None -> ()
  | Some h ->
    if Hashtbl.mem h node then begin
      t.tracer "release" node pid;
      Slot_index.remove t.held ~row:node ~slot:pid.Page_id.slot
    end;
    Hashtbl.remove h node;
    if Hashtbl.length h = 0 then Page_id.Tbl.remove t.table pid

let demote_to_s t ~node ~pid =
  match Page_id.Tbl.find_opt t.table pid with
  | None -> ()
  | Some h ->
    if Hashtbl.mem h node then begin
      t.tracer "demote" node pid;
      Hashtbl.replace h node Mode.S
    end

let x_holder t ~pid =
  List.find_map (fun (n, m) -> if Mode.equal m Mode.X then Some n else None) (holders t ~pid)

(* Visits [node]'s locks only, in ascending slot order. *)
let fold_node t ~node f init =
  Slot_index.fold_row t.held ~row:node
    (fun slot acc ->
      let pid = Page_id.make ~owner:t.owner ~slot in
      match holder_mode t ~node ~pid with None -> acc | Some mode -> f acc pid mode)
    init

let locks_held_by_node t ~node = fold_node t ~node (fun acc pid mode -> (pid, mode) :: acc) []

let release_all_shared_of_node t ~node =
  let shared =
    fold_node t ~node (fun acc pid mode -> if Mode.equal mode Mode.S then pid :: acc else acc) []
  in
  List.iter (fun pid -> release t ~node ~pid) shared;
  shared

let x_pages_of_node t ~node =
  fold_node t ~node (fun acc pid mode -> if Mode.equal mode Mode.X then pid :: acc else acc) []

let pages t = Page_id.Tbl.fold (fun pid _ acc -> pid :: acc) t.table []
let clear t =
  Page_id.Tbl.reset t.table;
  Slot_index.clear t.held

let check_invariants t =
  let locks = ref 0 in
  Page_id.Tbl.iter
    (fun pid h ->
      if Page_id.owner pid <> t.owner then
        invalid_arg (Format.asprintf "%a in the lock table of owner %d" Page_id.pp pid t.owner);
      Hashtbl.iter
        (fun node _ ->
          incr locks;
          if not (Slot_index.mem t.held ~row:node ~slot:pid.Page_id.slot) then
            invalid_arg (Format.asprintf "node %d's lock on %a is not indexed" node Page_id.pp pid))
        h;
      let xs = Hashtbl.fold (fun _ m acc -> if Mode.equal m Mode.X then acc + 1 else acc) h 0 in
      if xs > 1 then
        invalid_arg (Format.asprintf "two X holders on %a" Page_id.pp pid);
      if xs = 1 && Hashtbl.length h > 1 then
        invalid_arg (Format.asprintf "X holder coexists with others on %a" Page_id.pp pid))
    t.table;
  let indexed = Slot_index.cardinal t.held in
  if indexed <> !locks then
    invalid_arg (Format.asprintf "holder index has %d entries for %d locks" indexed !locks)
