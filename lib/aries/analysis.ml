module Record = Repro_wal.Record
module Log_manager = Repro_wal.Log_manager
module Lsn = Repro_wal.Lsn
module Page_id = Repro_storage.Page_id

type result = { dpt : Record.dpt_entry list; losers : Record.active_txn list }

(* A DPT entry while the scan runs: [curr_psn] moves in place, so a
   page's repeated updates build no new entry.  The table keeps its
   insertion sequence, which fixes the order of [result.dpt]. *)
type entry = { pid : Page_id.t; psn_first : int; mutable curr_psn : int; redo_lsn : Lsn.t }

let run log ~master =
  let ckpt_lsn = Master.get master in
  let dpt : entry Page_id.Tbl.t = Page_id.Tbl.create 32 in
  let txns : (int, Lsn.t) Hashtbl.t = Hashtbl.create 16 in
  let init_from_checkpoint () =
    if not (Lsn.is_nil ckpt_lsn) then
      match (Log_manager.read log ckpt_lsn).Record.body with
      | Checkpoint_begin { dpt = entries; active } ->
        List.iter
          (fun ({ pid; psn_first; curr_psn; redo_lsn } : Record.dpt_entry) ->
            Page_id.Tbl.replace dpt pid { pid; psn_first; curr_psn; redo_lsn })
          entries;
        List.iter (fun (a : Record.active_txn) -> Hashtbl.replace txns a.txn a.last_lsn) active
      | _ -> invalid_arg "Analysis.run: master record does not point at a Checkpoint_begin"
  in
  init_from_checkpoint ();
  let on_update lsn txn pid psn_before =
    (match Page_id.Tbl.find dpt pid with
    | e -> if psn_before + 1 > e.curr_psn then e.curr_psn <- psn_before + 1
    | exception Not_found ->
      Page_id.Tbl.replace dpt pid
        { pid; psn_first = psn_before; curr_psn = psn_before + 1; redo_lsn = lsn });
    Hashtbl.replace txns txn lsn
  in
  let scan_from = if Lsn.is_nil ckpt_lsn then Lsn.nil else ckpt_lsn in
  Log_manager.fold_heads log ~from:scan_from ~init:()
    (fun () lsn ~txn ~kind ~owner ~slot ~psn_before ->
      match kind with
      | Update | Clr -> on_update lsn txn (Page_id.make ~owner ~slot) psn_before
      | Savepoint -> Hashtbl.replace txns txn lsn
      | Commit | Abort -> Hashtbl.remove txns txn
      | Checkpoint_begin | Checkpoint_end -> ());
  let losers =
    Hashtbl.fold (fun txn last_lsn acc -> { Record.txn; last_lsn } :: acc) txns []
    |> List.sort (fun (a : Record.active_txn) b -> Int.compare a.txn b.txn)
  in
  let dpt =
    Page_id.Tbl.fold
      (fun _ e acc ->
        let { pid; psn_first; curr_psn; redo_lsn } = e in
        { Record.pid; psn_first; curr_psn; redo_lsn } :: acc)
      dpt []
  in
  { dpt; losers }
