module Record = Repro_wal.Record
module Log_manager = Repro_wal.Log_manager
module Lsn = Repro_wal.Lsn
module Page_id = Repro_storage.Page_id

type result = {
  dpt : Record.dpt_entry list;
  losers : Record.active_txn list;
  loser_pages : Page_id.Set.t;
  checkpoint_lsn : Lsn.t;
}

let run log ~master =
  let ckpt_lsn = Master.get master in
  let dpt : Record.dpt_entry Page_id.Tbl.t = Page_id.Tbl.create 32 in
  let txns : (int, Lsn.t) Hashtbl.t = Hashtbl.create 16 in
  let txn_pages : (int, Page_id.Set.t) Hashtbl.t = Hashtbl.create 16 in
  let init_from_checkpoint () =
    if not (Lsn.is_nil ckpt_lsn) then
      match (Log_manager.read log ckpt_lsn).Record.body with
      | Checkpoint_begin { dpt = entries; active } ->
        List.iter (fun (e : Record.dpt_entry) -> Page_id.Tbl.replace dpt e.pid e) entries;
        List.iter (fun (a : Record.active_txn) -> Hashtbl.replace txns a.txn a.last_lsn) active
      | _ -> invalid_arg "Analysis.run: master record does not point at a Checkpoint_begin"
  in
  init_from_checkpoint ();
  (* Called once per update record after the checkpoint: [find] rather
     than [find_opt], and a new DPT entry only when [curr_psn] grows,
     keep a page's repeated updates from allocating. *)
  let on_update lsn txn pid psn_before =
    (match Page_id.Tbl.find dpt pid with
    | e ->
      if psn_before + 1 > e.curr_psn then
        Page_id.Tbl.replace dpt pid { e with curr_psn = psn_before + 1 }
    | exception Not_found ->
      Page_id.Tbl.replace dpt pid
        { Record.pid; psn_first = psn_before; curr_psn = psn_before + 1; redo_lsn = lsn });
    Hashtbl.replace txns txn lsn;
    match Hashtbl.find txn_pages txn with
    | pages -> Hashtbl.replace txn_pages txn (Page_id.Set.add pid pages)
    | exception Not_found -> Hashtbl.replace txn_pages txn (Page_id.Set.singleton pid)
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
  let entries = Page_id.Tbl.fold (fun _ e acc -> e :: acc) dpt [] in
  let loser_pages =
    List.fold_left
      (fun acc (l : Record.active_txn) ->
        match Hashtbl.find_opt txn_pages l.txn with
        | Some pages -> Page_id.Set.union acc pages
        | None -> acc)
      Page_id.Set.empty losers
  in
  { dpt = entries; losers; loser_pages; checkpoint_lsn = ckpt_lsn }
