open Repro_storage
module Lsn = Repro_wal.Lsn
module Log_manager = Repro_wal.Log_manager

type run = { node : int; psn : int; lsn : Lsn.t }

type listing = { runs : run list; records : (Lsn.t * int) list }

let build log ~node ~pages ~start =
  (* [pages] in [Page_id.compare] order, binary-searched by the scanned
     owner and slot, so a record of an unlisted page allocates nothing;
     the per-page state is indexed by that position.  A page's
     [last_txn] is meaningful once its [runs] is non-empty. *)
  let listed = Array.of_list (Page_id.Set.elements pages) in
  let n = Array.length listed in
  let last_txn = Array.make n 0 in
  let runs : run list array = Array.make n [] in
  let recs : (Lsn.t * int) list array = Array.make n [] in
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
        let i = find owner slot 0 n in
        if i >= 0 then begin
          let new_run = match runs.(i) with [] -> true | _ :: _ -> last_txn.(i) <> txn in
          if new_run then begin
            last_txn.(i) <- txn;
            runs.(i) <- { node; psn = psn_before; lsn } :: runs.(i)
          end;
          recs.(i) <- (lsn, psn_before) :: recs.(i)
        end
      | Commit | Abort | Savepoint | Checkpoint_begin | Checkpoint_end -> ());
  let map = ref Page_id.Map.empty in
  Array.iteri
    (fun i pid ->
      match runs.(i) with
      | [] -> ()
      | _ :: _ ->
        map := Page_id.Map.add pid { runs = List.rev runs.(i); records = List.rev recs.(i) } !map)
    listed;
  !map

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
