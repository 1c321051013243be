open Repro_storage

type action =
  | Read of { pid : Page_id.t; off : int }
  | Update of { pid : Page_id.t; off : int; delta : int64 }
  | Write of { pid : Page_id.t; off : int; data : string }
  | Savepoint of string
  | Rollback_to of string
  | Abort_self

type script = { node : int; actions : action list }

let pp_action ppf = function
  | Read { pid; off } -> Format.fprintf ppf "read %a@@%d" Page_id.pp pid off
  | Update { pid; off; delta } -> Format.fprintf ppf "update %a@@%d %+Ld" Page_id.pp pid off delta
  | Write { pid; off; data } ->
    Format.fprintf ppf "write %a@@%d %dB" Page_id.pp pid off (String.length data)
  | Savepoint name -> Format.fprintf ppf "savepoint %s" name
  | Rollback_to name -> Format.fprintf ppf "rollback-to %s" name
  | Abort_self -> Format.pp_print_string ppf "abort"

let pp_script ppf s =
  Format.fprintf ppf "@[<v 2>txn@@node%d:@ %a@]" s.node
    (Format.pp_print_list pp_action) s.actions

let pages_touched s =
  List.filter_map
    (function
      | Read { pid; _ } | Update { pid; _ } | Write { pid; _ } -> Some pid
      | Savepoint _ | Rollback_to _ | Abort_self -> None)
    s.actions
  |> List.sort_uniq Page_id.compare

let compare_cell (p, o) (p', o') = match Page_id.compare p p' with 0 -> Int.compare o o' | c -> c

let cells_updated s =
  List.filter_map
    (function
      | Update { pid; off; _ } -> Some (pid, off)
      | Read _ | Write _ | Savepoint _ | Rollback_to _ | Abort_self -> None)
    s.actions
  |> List.sort_uniq compare_cell
