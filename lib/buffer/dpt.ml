open Repro_storage
module Lsn = Repro_wal.Lsn
module Record = Repro_wal.Record

type entry = {
  pid : Page_id.t;
  mutable psn_first : int;
  mutable curr_psn : int;
  mutable redo_lsn : Lsn.t;
  mutable replaced_at : Lsn.t;
  mutable updated_since_replacement : bool;
}

type t = { table : entry Page_id.Tbl.t }

let create () = { table = Page_id.Tbl.create 64 }
let find t pid = Page_id.Tbl.find_opt t.table pid
let mem t pid = Page_id.Tbl.mem t.table pid

let add_if_absent t pid ~page_psn ~end_of_log =
  if not (mem t pid) then
    Page_id.Tbl.replace t.table pid
      {
        pid;
        psn_first = page_psn;
        curr_psn = page_psn;
        redo_lsn = end_of_log;
        replaced_at = Lsn.nil;
        updated_since_replacement = false;
      }

let on_update t pid ~new_psn =
  match find t pid with
  | None -> invalid_arg "Dpt.on_update: page has no entry (X lock should have added one)"
  | Some e ->
    e.curr_psn <- new_psn;
    e.updated_since_replacement <- true

let on_replaced t pid ~end_of_log =
  match find t pid with
  | None -> ()
  | Some e ->
    e.replaced_at <- end_of_log;
    e.updated_since_replacement <- false

let drop t pid = Page_id.Tbl.remove t.table pid

let on_flush_ack t pid ~flushed_psn =
  match find t pid with
  | None -> ()
  | Some e ->
    if e.updated_since_replacement then begin
      (* Page was re-fetched and re-dirtied after the replacement the
         owner just made durable: keep the entry, but all records below
         the remembered end-of-log are now redundant for this page. *)
      if not (Lsn.is_nil e.replaced_at) then e.redo_lsn <- e.replaced_at;
      e.replaced_at <- Lsn.nil
    end
    else if e.curr_psn <= flushed_psn then drop t pid

let set_redo_lsn t pid lsn =
  match find t pid with None -> () | Some e -> e.redo_lsn <- lsn

let fold t init f = Page_id.Tbl.fold (fun _ e acc -> f acc e) t.table init

let min_redo_lsn t =
  fold t None (fun acc e ->
      match acc with
      | None -> Some e.redo_lsn
      | Some m -> Some (Lsn.min m e.redo_lsn))

let entry_with_min_redo_lsn t =
  fold t None (fun acc e ->
      match acc with
      | None -> Some e
      | Some m -> if Lsn.compare e.redo_lsn m.redo_lsn < 0 then Some e else acc)

let entries t = fold t [] (fun acc e -> e :: acc)
let entries_owned_by t owner = List.filter (fun e -> Page_id.owner e.pid = owner) (entries t)
let size t = Page_id.Tbl.length t.table
let clear t = Page_id.Tbl.reset t.table

let snapshot t =
  fold t [] (fun acc e ->
      {
        Record.pid = e.pid;
        psn_first = e.psn_first;
        curr_psn = e.curr_psn;
        redo_lsn = e.redo_lsn;
      }
      :: acc)

let load_snapshot t entries =
  List.iter
    (fun (s : Record.dpt_entry) ->
      Page_id.Tbl.replace t.table s.pid
        {
          pid = s.pid;
          psn_first = s.psn_first;
          curr_psn = s.curr_psn;
          redo_lsn = s.redo_lsn;
          replaced_at = Lsn.nil;
          updated_since_replacement = false;
        })
    entries
