type reason =
  | Lock_conflict of { blockers : int list }
  | Node_down of { node : int }
  | Log_space of { node : int }
  | Page_recovering of Repro_storage.Page_id.t
  | Page_unavailable of { pid : Repro_storage.Page_id.t; blocker : int }
  | Net_unreachable of { src : int; dst : int }

exception Would_block of reason

let block reason = raise (Would_block reason)

let pp_reason ppf = function
  | Lock_conflict { blockers } ->
    Format.fprintf ppf "lock conflict with %a"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
         (fun ppf t -> Format.fprintf ppf "T%d" t))
      blockers
  | Node_down { node } -> Format.fprintf ppf "node %d is down" node
  | Log_space { node } -> Format.fprintf ppf "node %d is out of log space" node
  | Page_recovering pid ->
    Format.fprintf ppf "page %a is being recovered" Repro_storage.Page_id.pp pid
  | Page_unavailable { pid; blocker } ->
    Format.fprintf ppf "page %a is unavailable until node %d recovers" Repro_storage.Page_id.pp
      pid blocker
  | Net_unreachable { src; dst } ->
    Format.fprintf ppf "node %d cannot reach node %d (partition)" src dst
