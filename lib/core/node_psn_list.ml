open Repro_storage
module Lsn = Repro_wal.Lsn
module Record = Repro_wal.Record
module Log_manager = Repro_wal.Log_manager

type run = { node : int; psn : int; lsn : Lsn.t }

type listing = { runs : run list; records : (Lsn.t * int) list }

let build log ~node ~pages ~start =
  let last_txn : int Page_id.Tbl.t = Page_id.Tbl.create 8 in
  let acc : run list Page_id.Tbl.t = Page_id.Tbl.create 8 in
  let recs : (Lsn.t * int) list Page_id.Tbl.t = Page_id.Tbl.create 8 in
  Log_manager.fold log ~from:start ~init:() (fun () lsn record ->
      match record.Record.body with
      | Update { pid; psn_before; _ } | Clr { pid; psn_before; _ } ->
        if Page_id.Set.mem pid pages then begin
          let txn = record.Record.txn in
          let new_run =
            match Page_id.Tbl.find_opt last_txn pid with
            | Some prev -> prev <> txn
            | None -> true
          in
          if new_run then begin
            Page_id.Tbl.replace last_txn pid txn;
            let runs = Option.value (Page_id.Tbl.find_opt acc pid) ~default:[] in
            Page_id.Tbl.replace acc pid ({ node; psn = psn_before; lsn } :: runs)
          end;
          let cur = Option.value (Page_id.Tbl.find_opt recs pid) ~default:[] in
          Page_id.Tbl.replace recs pid ((lsn, psn_before) :: cur)
        end
      | Commit | Abort | Savepoint _ | Checkpoint_begin _ | Checkpoint_end -> ());
  Page_id.Tbl.fold
    (fun pid runs map ->
      let records =
        List.rev (Option.value (Page_id.Tbl.find_opt recs pid) ~default:[])
      in
      Page_id.Map.add pid { runs = List.rev runs; records } map)
    acc Page_id.Map.empty

let merge per_node =
  let all = List.concat per_node in
  let sorted = List.sort (fun a b -> Int.compare a.psn b.psn) all in
  let rec collapse = function
    | a :: b :: rest when a.node = b.node ->
      (* adjacent same-node runs become one, anchored at the earlier one *)
      collapse (a :: rest)
    | a :: rest -> a :: collapse rest
    | [] -> []
  in
  collapse sorted
