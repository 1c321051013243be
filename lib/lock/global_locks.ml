open Repro_storage

type t = {
  table : (int, Mode.t) Hashtbl.t Page_id.Tbl.t;
  mutable tracer : string -> int -> Page_id.t -> unit;
}

let no_trace _ _ _ = ()
let create () = { table = Page_id.Tbl.create 64; tracer = no_trace }
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
    if conflicting = [] then Granted else Needs_callback { holders = conflicting }

let grant t ~node ~pid ~mode =
  let h = holders_tbl t pid in
  let new_mode =
    match Hashtbl.find_opt h node with None -> mode | Some held -> Mode.max held mode
  in
  Hashtbl.replace h node new_mode;
  t.tracer "grant" node pid

let release t ~node ~pid =
  match Page_id.Tbl.find_opt t.table pid with
  | None -> ()
  | Some h ->
    if Hashtbl.mem h node then t.tracer "release" node pid;
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

let fold_node t ~node f init =
  Page_id.Tbl.fold
    (fun pid h acc ->
      match Hashtbl.find_opt h node with None -> acc | Some mode -> f acc pid mode)
    t.table init

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
let clear t = Page_id.Tbl.reset t.table

let check_invariants t =
  Page_id.Tbl.iter
    (fun pid h ->
      let xs = Hashtbl.fold (fun _ m acc -> if Mode.equal m Mode.X then acc + 1 else acc) h 0 in
      if xs > 1 then
        invalid_arg (Format.asprintf "two X holders on %a" Page_id.pp pid);
      if xs = 1 && Hashtbl.length h > 1 then
        invalid_arg (Format.asprintf "X holder coexists with others on %a" Page_id.pp pid))
    t.table
