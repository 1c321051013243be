open Repro_storage
module Lsn = Repro_wal.Lsn
module Log_manager = Repro_wal.Log_manager

type run = { node : int; psn : int; lsn : Lsn.t }

type listing = { runs : run list; records : (Lsn.t * int) list }

let build log ~node ~pages ~start =
  let last_txn : int Page_id.Tbl.t = Page_id.Tbl.create 8 in
  let acc : run list Page_id.Tbl.t = Page_id.Tbl.create 8 in
  let recs : (Lsn.t * int) list Page_id.Tbl.t = Page_id.Tbl.create 8 in
  (* [pages] in [Page_id.compare] order, binary-searched by the scanned
     owner and slot, so a record of an unlisted page allocates nothing *)
  let listed = Array.of_list (Page_id.Set.elements pages) in
  let rec find owner slot lo hi =
    if lo >= hi then -1
    else
      let mid = (lo + hi) / 2 in
      let p = listed.(mid) in
      let c = if p.owner <> owner then Int.compare p.owner owner else Int.compare p.slot slot in
      if c = 0 then mid else if c < 0 then find owner slot (mid + 1) hi else find owner slot lo mid
  in
  Log_manager.fold_heads log ~from:start ~init:()
    (fun () lsn ~txn ~kind ~owner ~slot ~psn_before ->
      match kind with
      | Update | Clr ->
        let i = find owner slot 0 (Array.length listed) in
        if i >= 0 then begin
          let pid = listed.(i) in
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
      | Commit | Abort | Savepoint | Checkpoint_begin | Checkpoint_end -> ());
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
