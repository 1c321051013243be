open Repro_storage

type entry = {
  mutable cached : Mode.t;
  txns : (int, Mode.t) Hashtbl.t;
  mutable revoke_pending : (Mode.t * int * int) option; (* mode, txn, node *)
}

type t = {
  table : entry Page_id.Tbl.t;
  cached_index : Slot_index.t;
      (* (owner, slot) of every page in [table]: lets
         [cached_pages_owned_by] visit one owner's pages only *)
  by_txn : (int, Page_id.t list) Hashtbl.t;
      (* pages each transaction has taken a lock on — lets [release_txn]
         visit just the transaction's own pages instead of walking the
         whole table (the walk was O(cached pages) per commit and
         dominated big-cluster runs).  Entries may be stale after
         [drop_cached]; release treats a missing page as already free. *)
  early : int Page_id.Tbl.t;
      (* early-release registry: page -> the newest transaction that
         released its lock on it early and has not settled.  A chain
         A -> B -> C stays connected because B picked up its dependency
         on A before overwriting A's entry. *)
  early_by_txn : (int, Page_id.t list) Hashtbl.t;
      (* releaser -> pages it released early, so settling visits only
         its own pages *)
  mutable tracer : Repro_obs.Event.kind -> Page_id.t -> unit;
}

let no_trace _ _ = ()
let create () =
  {
    table = Page_id.Tbl.create 64;
    cached_index = Slot_index.create ();
    by_txn = Hashtbl.create 64;
    early = Page_id.Tbl.create 16;
    early_by_txn = Hashtbl.create 16;
    tracer = no_trace;
  }

let set_tracer t f = t.tracer <- f

let entry_opt t pid = Page_id.Tbl.find_opt t.table pid

(* [entry], [cache_covers] and [set_cached_mode] run on every acquire:
   they read the entry without building an option. *)
let entry t pid =
  match Page_id.Tbl.find t.table pid with
  | e -> e
  | exception Not_found ->
    let e = { cached = Mode.S; txns = Hashtbl.create 4; revoke_pending = None } in
    Page_id.Tbl.replace t.table pid e;
    Slot_index.add t.cached_index ~row:pid.Page_id.owner ~slot:pid.Page_id.slot;
    e

let cached_mode t pid = Option.map (fun e -> e.cached) (entry_opt t pid)

let cache_covers t pid mode =
  match Page_id.Tbl.find t.table pid with
  | e -> Mode.covers e.cached mode
  | exception Not_found -> false

let set_cached_mode t pid mode =
  match Page_id.Tbl.find t.table pid with
  | e -> e.cached <- Mode.max e.cached mode
  | exception Not_found -> (entry t pid).cached <- mode

let drop_cached t pid =
  if Page_id.Tbl.mem t.table pid then begin
    t.tracer Repro_obs.Event.Lock_release pid;
    Slot_index.remove t.cached_index ~row:pid.Page_id.owner ~slot:pid.Page_id.slot
  end;
  Page_id.Tbl.remove t.table pid

let demote_cached_to_s t pid =
  match entry_opt t pid with
  | None -> ()
  | Some e ->
    if not (Mode.equal e.cached Mode.S) then t.tracer Repro_obs.Event.Lock_demote pid;
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

(* Reads [owner]'s row of the index, not the whole table: this runs per
   operational peer in every restart's lock reconstruction. *)
let cached_pages_owned_by t owner =
  Slot_index.fold_row t.cached_index ~row:owner
    (fun slot acc ->
      let pid = Page_id.make ~owner ~slot in
      match entry_opt t pid with Some e -> (pid, e.cached) :: acc | None -> acc)
    []

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
  if not (List.is_empty conflicting) then Error { holders = conflicting }
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
   release-after-submit.  Each released page is registered under [txn]
   in the same step, so a later acquirer can pick up a commit
   dependency on it: without that, a later reader of these pages could
   become durable while this commit is still lost to a crash.  The
   tracer fires [Lock_early_release] per page, distinct from the
   terminal [Lock_release], so the audit layer can tell the two
   apart. *)
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
  List.iter
    (fun (pid, _) ->
      t.tracer Repro_obs.Event.Lock_early_release pid;
      Page_id.Tbl.replace t.early pid txn;
      let prev = Option.value (Hashtbl.find_opt t.early_by_txn txn) ~default:[] in
      Hashtbl.replace t.early_by_txn txn (pid :: prev))
    released;
  release_txn t ~txn;
  released

let early_releaser t pid = Page_id.Tbl.find_opt t.early pid
let released_early t pid = Page_id.Tbl.mem t.early pid

(* The equality check leaves a page alone once a later releaser has
   overwritten it. *)
let settle_early t ~txn =
  match Hashtbl.find_opt t.early_by_txn txn with
  | None -> ()
  | Some pids ->
    Hashtbl.remove t.early_by_txn txn;
    List.iter
      (fun pid ->
        match Page_id.Tbl.find_opt t.early pid with
        | Some r when r = txn -> Page_id.Tbl.remove t.early pid
        | Some _ | None -> ())
      pids

let clear t =
  Page_id.Tbl.reset t.table;
  Slot_index.clear t.cached_index;
  Hashtbl.reset t.by_txn;
  Page_id.Tbl.reset t.early;
  Hashtbl.reset t.early_by_txn

let check_invariants t =
  Page_id.Tbl.iter
    (fun pid e ->
      if not (Slot_index.mem t.cached_index ~row:pid.Page_id.owner ~slot:pid.Page_id.slot) then
        invalid_arg (Format.asprintf "cached page %a is not indexed" Page_id.pp pid);
      let xs = Hashtbl.fold (fun _ m acc -> if Mode.equal m Mode.X then acc + 1 else acc) e.txns 0 in
      if xs > 1 then invalid_arg (Format.asprintf "two local X holders on %a" Page_id.pp pid);
      Hashtbl.iter
        (fun _ m ->
          if not (Mode.covers e.cached m) then
            invalid_arg
              (Format.asprintf "txn lock %a exceeds cached mode %a on %a" Mode.pp m Mode.pp
                 e.cached Page_id.pp pid))
        e.txns)
    t.table;
  let indexed = Slot_index.cardinal t.cached_index in
  if indexed <> Page_id.Tbl.length t.table then
    invalid_arg
      (Format.asprintf "owner index has %d entries for %d cached pages" indexed
         (Page_id.Tbl.length t.table))
