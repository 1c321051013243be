(* Fragile matches (warning 4) are errors in this file, as in the
   Critical_path and Audit consumers: a new event kind or attribute
   type must not fall into a [_] case unnoticed. *)
[@@@warning "+4"]

type value = Int of int | Float of float | Str of string | Bool of bool

type kind =
  | Msg_send
  | Msg_recv
  | Log_append
  | Log_force
  | Page_read
  | Page_write
  | Page_ship
  | Cache_install
  | Cache_evict
  | Lock_request
  | Lock_grant
  | Lock_callback
  | Lock_demote
  | Lock_release
  | Lock_acquired
  | Ckpt_begin
  | Ckpt_end
  | Txn_begin
  | Txn_commit
  | Txn_abort
  | Commit_submit
  | Commit_batch
  | Commit_dep
  | Commit_dep_wait
  | Lock_early_release
  | Crash
  | Recovery_begin
  | Recovery_end
  | Recovery_phase
  | Recovery_restart
  | Recovery_deferred
  | Recovery_retry
  | Fault_drop
  | Fault_dup
  | Fault_delay
  | Fault_partition
  | Fault_torn
  | Fault_crash
  | Trace_dropped

type t = {
  time : float;  (** simulated seconds *)
  node : int;  (** -1 = cluster-wide / coordinator *)
  txn : int;  (** causing transaction (trace context), -1 if none *)
  kind : kind;
  attrs : (string * value) list;
}

let kind_name = function
  | Msg_send -> "msg.send"
  | Msg_recv -> "msg.recv"
  | Log_append -> "log.append"
  | Log_force -> "log.force"
  | Page_read -> "page.read"
  | Page_write -> "page.write"
  | Page_ship -> "page.ship"
  | Cache_install -> "cache.install"
  | Cache_evict -> "cache.evict"
  | Lock_request -> "lock.request"
  | Lock_grant -> "lock.grant"
  | Lock_callback -> "lock.callback"
  | Lock_demote -> "lock.demote"
  | Lock_release -> "lock.release"
  | Lock_acquired -> "lock.acquired"
  | Ckpt_begin -> "ckpt.begin"
  | Ckpt_end -> "ckpt.end"
  | Txn_begin -> "txn.begin"
  | Txn_commit -> "txn.commit"
  | Txn_abort -> "txn.abort"
  | Commit_submit -> "commit.submit"
  | Commit_batch -> "commit.batch"
  | Commit_dep -> "commit.dep"
  | Commit_dep_wait -> "commit.dep_wait"
  | Lock_early_release -> "lock.early_release"
  | Crash -> "crash"
  | Recovery_begin -> "recovery.begin"
  | Recovery_end -> "recovery.end"
  | Recovery_phase -> "recovery.phase"
  | Recovery_restart -> "recovery.restart"
  | Recovery_deferred -> "recovery.deferred"
  | Recovery_retry -> "recovery.retry"
  | Fault_drop -> "fault.drop"
  | Fault_dup -> "fault.dup"
  | Fault_delay -> "fault.delay"
  | Fault_partition -> "fault.partition"
  | Fault_torn -> "fault.torn"
  | Fault_crash -> "fault.crash"
  | Trace_dropped -> "trace.dropped"

let all_kinds =
  [
    Msg_send; Msg_recv; Log_append; Log_force; Page_read; Page_write; Page_ship;
    Cache_install; Cache_evict; Lock_request; Lock_grant; Lock_callback; Lock_demote;
    Lock_release; Lock_acquired; Ckpt_begin; Ckpt_end; Txn_begin; Txn_commit; Txn_abort;
    Commit_submit; Commit_batch; Commit_dep; Commit_dep_wait; Lock_early_release; Crash;
    Recovery_begin; Recovery_end; Recovery_phase; Recovery_restart; Recovery_deferred;
    Recovery_retry; Fault_drop; Fault_dup; Fault_delay; Fault_partition; Fault_torn; Fault_crash;
    Trace_dropped;
  ]

let kind_of_name s = List.find_opt (fun k -> String.equal (kind_name k) s) all_kinds

let make ~time ~node ?(txn = -1) kind attrs = { time; node; txn; kind; attrs }

let pp_value ppf = function
  | Int i -> Format.pp_print_int ppf i
  | Float f -> Format.fprintf ppf "%g" f
  | Str s -> Format.pp_print_string ppf s
  | Bool b -> Format.pp_print_bool ppf b

let render e =
  Format.asprintf "t=%.6f n=%d%s %s%a" e.time e.node
    (if e.txn >= 0 then Printf.sprintf " T%d" e.txn else "")
    (kind_name e.kind)
    (fun ppf attrs -> List.iter (fun (k, v) -> Format.fprintf ppf " %s=%a" k pp_value v) attrs)
    e.attrs

let json_value = function
  | Int i -> Json.Int i
  | Float f -> Json.Float f
  | Str s -> Json.Str s
  | Bool b -> Json.Bool b

let to_json e =
  let base =
    [ ("t", Json.Float e.time); ("node", Json.Int e.node); ("kind", Json.Str (kind_name e.kind)) ]
  in
  (* the trace context is exported as "ctx", never "txn": several kinds
     already carry a domain attr named "txn" and JSON keys must not
     collide *)
  let ctx = if e.txn >= 0 then [ ("ctx", Json.Int e.txn) ] else [] in
  let attrs = List.map (fun (k, v) -> (k, json_value v)) e.attrs in
  Json.Obj (base @ ctx @ attrs)

let value_of_json = function
  | Json.Int i -> Some (Int i)
  | Json.Float f -> Some (Float f)
  | Json.Str s -> Some (Str s)
  | Json.Bool b -> Some (Bool b)
  | Json.Null | Json.List _ | Json.Obj _ -> None

let header_keys = [ "t"; "node"; "kind"; "ctx" ]

let of_json j =
  match j with
  | Json.Obj fields ->
    let time = Option.bind (List.assoc_opt "t" fields) Json.to_float_opt in
    let node = Option.bind (List.assoc_opt "node" fields) Json.to_int_opt in
    let kind =
      Option.bind (Option.bind (List.assoc_opt "kind" fields) Json.to_string_opt) kind_of_name
    in
    let txn =
      Option.value ~default:(-1) (Option.bind (List.assoc_opt "ctx" fields) Json.to_int_opt)
    in
    (match (time, node, kind) with
    | Some time, Some node, Some kind ->
      let attrs =
        List.filter_map
          (fun (k, v) ->
            if List.mem k header_keys then None
            else Option.map (fun v -> (k, v)) (value_of_json v))
          fields
      in
      Some (make ~time ~node ~txn kind attrs)
    | (None, _, _) | (_, None, _) | (_, _, None) -> None)
  | Json.Null | Json.Bool _ | Json.Int _ | Json.Float _ | Json.Str _ | Json.List _ -> None

(* ---- attr accessors (used by the trace analyses) ---- *)

let attr e key = List.assoc_opt key e.attrs
let attr_int e key =
  match attr e key with Some (Int i) -> Some i | Some (Float _ | Str _ | Bool _) | None -> None

let attr_float e key =
  match attr e key with
  | Some (Float f) -> Some f
  | Some (Int i) -> Some (float_of_int i)
  | Some (Str _ | Bool _) | None -> None

let attr_str e key =
  match attr e key with Some (Str s) -> Some s | Some (Int _ | Float _ | Bool _) | None -> None
