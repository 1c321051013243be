open Repro_storage

type entry = {
  mutable cached : Mode.t;
  txns : (int, Mode.t) Hashtbl.t;
  mutable revoke_pending : (Mode.t * int * int) option; (* mode, txn, node *)
}

type t = {
  table : entry Page_id.Tbl.t;
  by_txn : (int, Page_id.t list) Hashtbl.t;
      (* pages each transaction has taken a lock on — lets [release_txn]
         visit just the transaction's own pages instead of walking the
         whole table (the walk was O(cached pages) per commit and
         dominated big-cluster runs).  Entries may be stale after
         [drop_cached]; release treats a missing page as already free. *)
  mutable tracer : string -> Page_id.t -> unit;
}

let no_trace _ _ = ()
let create () = { table = Page_id.Tbl.create 64; by_txn = Hashtbl.create 64; tracer = no_trace }
let set_tracer t f = t.tracer <- f

let entry_opt t pid = Page_id.Tbl.find_opt t.table pid

let entry t pid =
  match entry_opt t pid with
  | Some e -> e
  | None ->
    let e = { cached = Mode.S; txns = Hashtbl.create 4; revoke_pending = None } in
    Page_id.Tbl.replace t.table pid e;
    e

let cached_mode t pid = Option.map (fun e -> e.cached) (entry_opt t pid)

let cache_covers t pid mode =
  match cached_mode t pid with None -> false | Some held -> Mode.covers held mode

let set_cached_mode t pid mode =
  let e = entry t pid in
  e.cached <- (match cached_mode t pid with None -> mode | Some held -> Mode.max held mode)

let drop_cached t pid =
  if Page_id.Tbl.mem t.table pid then t.tracer "release" pid;
  Page_id.Tbl.remove t.table pid

let demote_cached_to_s t pid =
  match entry_opt t pid with
  | None -> ()
  | Some e ->
    if e.cached <> Mode.S then t.tracer "demote" pid;
    e.cached <- Mode.S

let set_revoke_pending t pid ~mode ~txn ~node =
  let e = entry t pid in
  match e.revoke_pending with
  | Some (m, existing, _) when existing <= txn ->
    (* keep the oldest requester; strengthen the mode if needed *)
    if Mode.compare mode m > 0 && existing = txn then e.revoke_pending <- Some (mode, txn, node)
  | Some _ | None -> e.revoke_pending <- Some (mode, txn, node)

let revoke_pending t pid =
  match entry_opt t pid with None -> None | Some e -> e.revoke_pending

let clear_revoke_pending t pid =
  match entry_opt t pid with None -> () | Some e -> e.revoke_pending <- None

let cached_pages t = Page_id.Tbl.fold (fun pid e acc -> (pid, e.cached) :: acc) t.table []

(* One fold with the owner filter applied in place — not a filter over
   [cached_pages], which would materialise the full list first (this
   runs per crashed-node peer during recovery's claim gathering). *)
let cached_pages_owned_by t owner =
  Page_id.Tbl.fold
    (fun pid e acc -> if Page_id.owner pid = owner then (pid, e.cached) :: acc else acc)
    t.table []

type conflict = { holders : int list }

let conflicting_txns e ~except ~mode =
  Hashtbl.fold
    (fun txn held acc ->
      if txn <> except && not (Mode.compatible held mode) then txn :: acc else acc)
    e.txns []

let conflicts t pid ~except ~mode =
  match entry_opt t pid with None -> [] | Some e -> conflicting_txns e ~except ~mode

let acquire t ~txn ~pid ~mode =
  if not (cache_covers t pid mode) then
    invalid_arg "Local_locks.acquire: node-level lock does not cover the request";
  let e = entry t pid in
  let conflicting = conflicting_txns e ~except:txn ~mode in
  if conflicting <> [] then Error { holders = conflicting }
  else begin
    let new_mode =
      match Hashtbl.find_opt e.txns txn with
      | None ->
        (* first lock by [txn] on this page instance: index it *)
        let prev = Option.value (Hashtbl.find_opt t.by_txn txn) ~default:[] in
        Hashtbl.replace t.by_txn txn (pid :: prev);
        mode
      | Some held -> Mode.max held mode
    in
    Hashtbl.replace e.txns txn new_mode;
    Ok ()
  end

let txn_mode t ~txn ~pid =
  match entry_opt t pid with None -> None | Some e -> Hashtbl.find_opt e.txns txn

let any_txn_holds t pid =
  match entry_opt t pid with None -> false | Some e -> Hashtbl.length e.txns > 0

let release_txn t ~txn =
  match Hashtbl.find_opt t.by_txn txn with
  | None -> ()
  | Some pids ->
    Hashtbl.remove t.by_txn txn;
    List.iter
      (fun pid ->
        match Page_id.Tbl.find_opt t.table pid with
        | Some e -> Hashtbl.remove e.txns txn
        | None -> () (* the cached page was dropped since *))
      pids

(* Early release (controlled lock violation): surrender every txn-level
   lock [txn] holds at batch-submit time, BEFORE its commit record is
   durable — strict 2PL's release-after-terminal discipline weakened to
   release-after-submit.  Returns the released (page, mode) pairs so the
   caller can pair the release with commit-dependency registration;
   without that pairing a later reader of these pages could become
   durable while this commit is still lost to a crash.  The tracer
   fires with action ["early_release"] per page, distinct from the
   terminal ["release"], so the audit layer can tell the two apart. *)
let release_txn_early t ~txn =
  let released =
    match Hashtbl.find_opt t.by_txn txn with
    | None -> []
    | Some pids ->
      List.filter_map
        (fun pid ->
          match Page_id.Tbl.find_opt t.table pid with
          | Some e -> Option.map (fun m -> (pid, m)) (Hashtbl.find_opt e.txns txn)
          | None -> None)
        pids
  in
  List.iter (fun (pid, _) -> t.tracer "early_release" pid) released;
  release_txn t ~txn;
  released

let clear t =
  Page_id.Tbl.reset t.table;
  Hashtbl.reset t.by_txn

let check_invariants t =
  Page_id.Tbl.iter
    (fun pid e ->
      let xs = Hashtbl.fold (fun _ m acc -> if Mode.equal m Mode.X then acc + 1 else acc) e.txns 0 in
      if xs > 1 then invalid_arg (Format.asprintf "two local X holders on %a" Page_id.pp pid);
      Hashtbl.iter
        (fun _ m ->
          if not (Mode.covers e.cached m) then
            invalid_arg
              (Format.asprintf "txn lock %a exceeds cached mode %a on %a" Mode.pp m Mode.pp
                 e.cached Page_id.pp pid))
        e.txns)
    t.table
