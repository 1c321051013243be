module Env = Repro_sim.Env
module Metrics = Repro_sim.Metrics
module Page = Repro_storage.Page
module Page_id = Repro_storage.Page_id
module Disk = Repro_storage.Disk
module Alloc_map = Repro_storage.Alloc_map
module Lsn = Repro_wal.Lsn
module Record = Repro_wal.Record
module Log_manager = Repro_wal.Log_manager
module Group_commit = Repro_wal.Group_commit
module Buffer_pool = Repro_buffer.Buffer_pool
module Dpt = Repro_buffer.Dpt
module Mode = Repro_lock.Mode
module Local_locks = Repro_lock.Local_locks
module Global_locks = Repro_lock.Global_locks
module Txn = Repro_tx.Txn
module Txn_table = Repro_tx.Txn_table
module Undo = Repro_aries.Undo
module Event = Repro_obs.Event

(* Node_state exports the shared state record; opening it is the
   "shared type definitions" exception to the no-open rule. *)
open Node_state

type t = Node_state.t

let id t = t.id
let is_up t = t.up
let check_up t = if not t.up then Block.block (Block.Node_down { node = t.id })
let page_size t = (Env.config t.env).Repro_sim.Config.page_size

(* The log that holds this node's transaction records: its own, except
   under the shared-log baseline. *)
let txn_log t =
  match t.scheme with
  | Global_log { log_node } -> (peer t log_node).log
  | Local_logging | Server_logging _ | Pca_double_logging -> t.log

(* WAL discipline before a dirty page copy leaves the node.  Under the
   server-logging baseline the client has no durable log — its records
   travel at commit (ARIES/CSA); see DESIGN.md for the simplification. *)
let wal_force t lsn =
  if not (Lsn.is_nil lsn) then
    match t.scheme with
    | Local_logging | Pca_double_logging ->
      (* The force pushes durability to the device end; its
         after-force hook completes the group-commit records it made
         durable. *)
      Log_manager.force t.log ~upto:lsn
    | Global_log { log_node } ->
      let ln = peer t log_node in
      Log_manager.force ln.log ~upto:lsn
    | Server_logging _ -> ()

(* ------------------------------------------------------------------ *)
(* Database population (owner role)                                    *)
(* ------------------------------------------------------------------ *)

let allocate_page t =
  check_up t;
  let page = Alloc_map.allocate t.alloc ~page_size:(page_size t) in
  Disk.write t.disk page;
  Page.id page

let owner_latest_copy t pid =
  assert (Page_id.owner pid = t.id);
  match Buffer_pool.peek t.pool pid with
  | Some frame ->
    (* WAL: a copy of a dirty page must never leave this node before
       the log records covering its updates are durable — otherwise a
       crash here leaves another node holding page state whose PSN
       lineage exists in no surviving log. *)
    if frame.dirty then wal_force t frame.last_lsn;
    Page.copy frame.page
  | None ->
    (match Disk.read t.disk pid with
    | Some page -> page
    | None ->
      if Alloc_map.is_allocated t.alloc pid then
        Page.create ~id:pid ~psn:(Alloc_map.psn_seed t.alloc pid) ~size:(page_size t)
      else invalid_arg (Format.asprintf "Node.owner_latest_copy: %a not allocated" Page_id.pp pid))

let deallocate_page t pid =
  check_up t;
  let page = owner_latest_copy t pid in
  Buffer_pool.remove t.pool pid;
  Alloc_map.deallocate t.alloc page

(* ------------------------------------------------------------------ *)
(* Crash and injected crash points                                     *)
(* ------------------------------------------------------------------ *)

let wipe_volatile t =
  Buffer_pool.clear t.pool;
  Local_locks.clear t.locks;
  Global_locks.clear t.glocks;
  Dpt.clear t.dpt;
  Txn_table.clear t.txns;
  Page_id.Tbl.reset t.flush_waiters;
  Page_id.Tbl.reset t.reservations;
  t.recovering_pages <- Page_id.Set.empty;
  (* The pending group-commit batch is volatile: none of those commits
     happened — recovery will abort them.  [Group_commit.crash] fires
     the loss hook with the lost members.  Their commit dependents all
     ran on this node, so they are lost with it too. *)
  Group_commit.crash t.gc

let crash t =
  t.up <- false;
  wipe_volatile t;
  Log_manager.crash ?faults:(Env.faults t.env) t.log;
  if Env.tracing t.env then Env.emit t.env ~node:t.id Event.Crash []

(* Discard whatever volatile state a previous, aborted recovery attempt
   left behind (partially recovered pages, reconstructed lock tables,
   re-registered losers) WITHOUT touching the log: the node is already
   down, its durable state is exactly what the next attempt must start
   from, and re-tearing the tail would manufacture a second crash. *)
let reset_volatile t =
  assert (not t.up);
  wipe_volatile t

(* A named protocol crash point: with a fault injector installed, the
   node may crash *here* — mid-commit-force, mid-checkpoint, mid-ship,
   mid-rollback — the schedules most likely to expose recovery bugs.
   The crash surfaces as [Node_down] so the caller unwinds exactly as
   it would for any other crash. *)
let maybe_crashpoint t point =
  match Env.faults t.env with
  | Some inj when Repro_fault.Injector.crashpoint inj point ->
    t.metrics.Metrics.injected_crashes <- t.metrics.injected_crashes + 1;
    Env.emit t.env ~node:t.id Event.Fault_crash
      [ ("point", Event.Str (Repro_fault.Fault_plan.point_name point)) ];
    crash t;
    Block.block (Block.Node_down { node = t.id })
  | Some _ | None -> ()

(* ------------------------------------------------------------------ *)
(* Flush acknowledgements (§2.5)                                       *)
(* ------------------------------------------------------------------ *)

let register_flush_waiter t pid ~waiter =
  let cur = Option.value (Page_id.Tbl.find_opt t.flush_waiters pid) ~default:[] in
  if not (List.mem waiter cur) then Page_id.Tbl.replace t.flush_waiters pid (waiter :: cur)

let take_flush_waiters t pid =
  match Page_id.Tbl.find_opt t.flush_waiters pid with
  | None -> []
  | Some waiters ->
    Page_id.Tbl.remove t.flush_waiters pid;
    waiters

(* The owner just made [pid] durable at [flushed_psn]: retire its own
   DPT entry if covered, and acknowledge every registered waiter so the
   waiters can retire or advance theirs (§2.2 / §2.5). *)
let owner_after_flush t pid ~flushed_psn =
  (match Dpt.find t.dpt pid with
  | Some e when e.curr_psn <= flushed_psn -> Dpt.drop t.dpt pid
  | Some _ | None -> ());
  let waiters = take_flush_waiters t pid in
  List.iter
    (fun waiter ->
      let n = peer t waiter in
      if not (link_up t ~dst:waiter) then
        (* The ack cannot cross the partition right now.  Keep the
           waiter registered — losing it silently would strand its DPT
           entry forever; a later flush (or §2.5 request) re-sends. *)
        register_flush_waiter t pid ~waiter
      else begin
        let dup = send_dup t ~dst:waiter ~bytes:Wire.control () in
        if n.up then begin
          let deliver () =
            Dpt.on_flush_ack n.dpt pid ~flushed_psn;
            (* The durable copy covers the waiter's cached version: that
               copy is no longer dirty — there is nothing left to ship —
               and keeping the flag would leave a dirty frame behind after
               the ack retires the DPT entry. *)
            match Buffer_pool.peek n.pool pid with
            | Some f when f.dirty && Page.psn f.page <= flushed_psn ->
              f.dirty <- false;
              f.rec_lsn <- Lsn.nil
            | Some _ | None -> ()
          in
          deliver ();
          if dup then deliver ()
        end
      end)
    waiters

(* ------------------------------------------------------------------ *)
(* Eviction and page shipping (§2.1/§2.2: steal, no-force)             *)
(* ------------------------------------------------------------------ *)

(* Evicting a dirty frame first forces the local log up to the frame's
   last update record (WAL), then writes in place (own page) or ships
   the copy to the owner (remote page).  The frame leaves the pool
   before any shipping so that a circular eviction chain between full
   pools always finds a free slot. *)
let rec evict_frame t (frame : Buffer_pool.frame) =
  let pid = Page.id frame.page in
  (* A dirty remote eviction needs the owner up to receive the ship.
     Checked before the frame leaves the pool: removing first and
     blocking after would drop the only cached copy of the current
     version, and a later update from the stale disk base would mint a
     second lineage under the same PSNs. *)
  if frame.dirty && Page_id.owner pid <> t.id then begin
    let owner = peer t (Page_id.owner pid) in
    if not owner.up then Block.block (Block.Node_down { node = owner.id });
    ensure_link t ~dst:owner.id
  end;
  Buffer_pool.remove t.pool pid;
  if frame.dirty then begin
    wal_force t frame.last_lsn;
    if Page_id.owner pid = t.id then begin
      Disk.write t.disk frame.page;
      owner_after_flush t pid ~flushed_psn:(Page.psn frame.page)
    end
    else begin
      let owner = peer t (Page_id.owner pid) in
      ship_to_owner t ~owner ~lsn:frame.last_lsn frame.page;
      Dpt.on_replaced t.dpt pid ~end_of_log:(Log_manager.end_lsn t.log)
    end
  end

(* Ship a dirty page copy to its owner: one page-sized message plus the
   owner-side install.  The single place the [pages_shipped] counter and
   the [Page_ship] event are produced. *)
and ship_to_owner t ~owner ?(commit_path = false) ~lsn page =
  maybe_crashpoint t Repro_fault.Fault_plan.Page_ship;
  let dup = send_dup t ~dst:owner.id ~commit_path ~bytes:(Wire.page (Env.config t.env)) () in
  t.metrics.Metrics.pages_shipped <- t.metrics.pages_shipped + 1;
  if Env.tracing t.env then
    (* [lsn] is the page's last update record: the WAL obligation this
       ship is subject to.  The trace auditor checks it against the
       sender's durable boundary. *)
    Env.emit t.env ~node:t.id Event.Page_ship
      [
        ("dst", Event.Int owner.id);
        ("page", Event.Str (Page_id.to_string (Page.id page)));
        ("psn", Event.Int (Page.psn page));
        ("lsn", Event.Int lsn);
      ];
  owner_receive_replaced owner (Page.copy page) ~from:t.id;
  (* A duplicated ship delivers the same copy twice; the owner-side
     install is a PSN-guarded merge, so the second delivery is a no-op
     beyond re-registering the (deduplicated) flush waiter. *)
  if dup then owner_receive_replaced owner (Page.copy page) ~from:t.id

(* Owner role: a peer replaced a dirty page and shipped it here.  The
   owner caches it dirty (it is now responsible for eventually forcing
   it) and remembers the sender as a flush waiter. *)
and owner_receive_replaced t page ~from =
  let pid = Page.id page in
  register_flush_waiter t pid ~waiter:from;
  match install_or_merge t page with
  | (frame : Buffer_pool.frame) -> (
    frame.dirty <- true;
    match t.scheme with
    | Global_log _ ->
      (* Rdb/VMS-style: pages are forced to disk when exchanged between
         nodes; the owner never holds a transferred page dirty. *)
      Disk.write t.disk frame.page;
      frame.dirty <- false;
      owner_after_flush t pid ~flushed_psn:(Page.psn frame.page)
    | Local_logging | Server_logging _ | Pca_double_logging -> ())
  | exception Block.Would_block _ when not t.up ->
    (* The eviction chain hit an injected crash point and felled THIS
       node: nothing here may keep running on the wiped state. *)
    Block.block (Block.Node_down { node = t.id })
  | exception Block.Would_block _ ->
    (* No evictable frame to make room with.  The ship must not fail
       part-way — the sender has already dropped its copy — so force
       the received copy straight to disk instead of caching it.  The
       WAL rule holds: the sender forced its log before shipping. *)
    (match Disk.psn_on_disk t.disk pid with
    | Some d when d >= Page.psn page -> ()
    | Some _ | None -> Disk.write t.disk page);
    owner_after_flush t pid ~flushed_psn:(Page.psn page)

and make_room t =
  (* An eviction can block (a dirty remote victim whose owner is down).
     Such victims are parked — pinned so the policy skips them — and
     the next candidate is tried; the block surfaces only when nothing
     in the pool is evictable.  Parked frames are always unpinned on
     the way out.  Most calls find room and return before allocating
     any of that. *)
  if Buffer_pool.is_full t.pool then begin
    let parked = ref [] in
    let blocked = ref None in
    Fun.protect
      ~finally:(fun () -> List.iter Buffer_pool.unpin !parked)
      (fun () ->
        while Buffer_pool.is_full t.pool do
          match Buffer_pool.choose_victim t.pool with
          | Some victim -> (
            try evict_frame t victim
            with Block.Would_block _ as e ->
              (* Parking is for victims whose OWNER is unreachable.  If the
                 eviction instead crashed this very node (injected crash
                 point mid-ship), the wiped state must not keep running:
                 surface the crash to the caller. *)
              if not t.up then raise e;
              (* A block raised after the victim left the pool (the
                 owner fell mid-ship) is no parked victim: the ship did
                 not complete, and the caller must see it. *)
              (match Buffer_pool.peek t.pool (Page.id victim.page) with
              | Some f when f == victim -> ()
              | Some _ | None -> raise e);
              if Option.is_none !blocked then blocked := Some e;
              Buffer_pool.pin victim;
              parked := victim :: !parked)
          | None -> (
            match !blocked with
            | Some e -> raise e
            | None -> invalid_arg "Node.make_room: every frame is pinned")
        done)
  end

(* Put [page] in the pool, keeping the newer version if a copy is
   already (or — via an eviction chain triggered by make_room —
   concurrently) cached. *)
and install_or_merge t page =
  let pid = Page.id page in
  let merge frame =
    if Page.psn page > Page.psn frame.Buffer_pool.page then begin
      Page.assign frame.Buffer_pool.page ~from:page;
      Page.set_psn frame.Buffer_pool.page (Page.psn page)
    end;
    frame
  in
  match Buffer_pool.peek t.pool pid with
  | Some frame -> merge frame
  | None -> begin
    make_room t;
    match Buffer_pool.peek t.pool pid with
    | Some frame -> merge frame
    | None -> Buffer_pool.install t.pool page
  end

let install_page t page = install_or_merge t page

(* ------------------------------------------------------------------ *)
(* Page fetching (data shipping, §2.2)                                 *)
(* ------------------------------------------------------------------ *)

let fetch_page_from_owner t pid =
  let owner_id = Page_id.owner pid in
  if owner_id = t.id then install_page t (owner_latest_copy t pid)
  else begin
    let owner = peer t owner_id in
    if not owner.up then Block.block (Block.Node_down { node = owner_id });
    ensure_link t ~dst:owner_id;
    if Page_id.Set.mem pid owner.recovering_pages then Block.block (Block.Page_recovering pid);
    send t ~dst:owner_id ~bytes:Wire.control ();
    let page = owner_latest_copy owner pid in
    send owner ~dst:t.id ~bytes:(Wire.page (Env.config t.env)) ();
    install_page t page
  end

let ensure_cached_page t pid =
  check_up t;
  match Buffer_pool.find t.pool pid with
  | Some frame ->
    t.metrics.Metrics.cache_hits <- t.metrics.cache_hits + 1;
    frame
  | None ->
    t.metrics.Metrics.cache_misses <- t.metrics.cache_misses + 1;
    fetch_page_from_owner t pid

(* ------------------------------------------------------------------ *)
(* Callback locking (§2.1/§2.2)                                        *)
(* ------------------------------------------------------------------ *)

(* Is [txn] still an active transaction at [node]?  Used to detect and
   drop stale fairness marks (their requester died). *)
let txn_active_at t ~txn ~node =
  let n = peer t node in
  n.up
  &&
  match Txn_table.find n.txns txn with
  | Some descr -> Txn.is_active descr
  | None -> false

(* Holder side of a callback.  [requested] is the mode the *requester*
   wants: X means release the cached lock (and give up the page), S
   means demote an exclusive lock to shared.  A callback is refused as
   long as a local transaction holds a conflicting lock (§2.2); the
   refusal marks the cached lock revoke-pending so that new local
   acquisitions queue behind the remote requester instead of starving
   it. *)
let handle_callback t ~pid ~requested ~for_txn ~for_node =
  check_up t;
  (* Early lock release keeps the released pages' visibility strictly
     local: dependents are tracked in the same node's tables.  A
     callback means this page is about to become visible beyond the
     node (the owner will hand it onward), where no dependency can be
     recorded — so collapse the violation window instead: flush the
     pending batch, making the early releaser durable before the page
     leaves.  Free when elr is off (the registry is empty). *)
  if Local_locks.released_early t.locks pid then Group_commit.flush t.gc;
  let conflicting = Local_locks.conflicts t.locks pid ~except:for_txn ~mode:requested in
  if not (List.is_empty conflicting) then begin
    Local_locks.set_revoke_pending t.locks pid ~mode:requested ~txn:for_txn ~node:for_node;
    Error conflicting
  end
  else if Page_id.owner pid = t.id then begin
    Local_locks.clear_revoke_pending t.locks pid;
    (* The owner's own client-level lock is being called back.  The
       owner is the cache of last resort for its pages: the (possibly
       dirty) frame stays in its pool as an owner-cached copy and only
       the client-level lock is surrendered. *)
    (match requested with
    | Mode.X -> Local_locks.drop_cached t.locks pid
    | Mode.S -> Local_locks.demote_cached_to_s t.locks pid);
    Ok ()
  end
  else begin
    (* Ship the current copy to the owner if we hold it dirty
       ("sends the copy of the page present in its buffer pool"). *)
    (match Buffer_pool.peek t.pool pid with
    | Some frame when frame.dirty ->
      wal_force t frame.last_lsn;
      let owner = peer t (Page_id.owner pid) in
      ship_to_owner t ~owner ~lsn:frame.last_lsn frame.page;
      Dpt.on_replaced t.dpt pid ~end_of_log:(Log_manager.end_lsn t.log);
      frame.dirty <- false;
      frame.rec_lsn <- Lsn.nil
    | Some _ | None -> ());
    (match requested with
    | Mode.X ->
      Buffer_pool.remove t.pool pid;
      Local_locks.drop_cached t.locks pid
    | Mode.S ->
      Local_locks.demote_cached_to_s t.locks pid;
      Local_locks.clear_revoke_pending t.locks pid);
    Ok ()
  end

(* Owner side: decide, run callbacks, grant.  Returns the page when the
   requester asked for a copy (grant + page travel in one message, as
   in §2.2).

   Fairness: the oldest requester that ever had to wait for this page
   holds a reservation; younger requesters queue behind it.  Together
   with the revoke-pending mark at the holders, this guarantees the
   oldest transaction in the system always makes progress. *)
let owner_grant_lock t ~requester ~txn ~pid ~mode ~need_page =
  check_up t;
  if Page_id.Set.mem pid t.recovering_pages then Block.block (Block.Page_recovering pid);
  (match Page_id.Tbl.find_opt t.reservations pid with
  | Some (rtxn, rnode) when rtxn <> txn ->
    if txn_active_at t ~txn:rtxn ~node:rnode then begin
      if txn > rtxn then Block.block (Block.Lock_conflict { blockers = [ rtxn ] })
      (* an older requester proceeds and may steal the reservation *)
    end
    else Page_id.Tbl.remove t.reservations pid
  | Some _ | None -> ());
  (match Global_locks.request t.glocks ~node:requester ~pid ~mode with
  | Global_locks.Granted -> ()
  | Global_locks.Needs_callback { holders } ->
    let refusals =
      List.concat_map
        (fun (holder_id, _held) ->
          let holder = peer t holder_id in
          if not holder.up then Block.block (Block.Node_down { node = holder_id });
          ensure_link t ~dst:holder_id;
          t.metrics.Metrics.callbacks_sent <- t.metrics.callbacks_sent + 1;
          if Env.tracing t.env then
            Env.emit t.env ~node:t.id Event.Lock_callback
              [
                ("holder", Event.Int holder_id);
                ("requester", Event.Int requester);
                ("page", Event.Str (Page_id.to_string pid));
                ("mode", Event.Str (Mode.to_string mode));
              ];
          send t ~dst:holder_id ~bytes:Wire.control ();
          match handle_callback holder ~pid ~requested:mode ~for_txn:txn ~for_node:requester with
          | Ok () ->
            send holder ~dst:t.id ~bytes:Wire.control ();
            (match mode with
            | Mode.X -> Global_locks.release t.glocks ~node:holder_id ~pid
            | Mode.S -> Global_locks.demote_to_s t.glocks ~node:holder_id ~pid);
            []
          | Error blockers -> blockers)
        holders
    in
    if not (List.is_empty refusals) then begin
      (match Page_id.Tbl.find_opt t.reservations pid with
      | Some (rtxn, _) when rtxn <= txn -> ()
      | Some _ | None -> Page_id.Tbl.replace t.reservations pid (txn, requester));
      Block.block (Block.Lock_conflict { blockers = refusals })
    end);
  (match Page_id.Tbl.find_opt t.reservations pid with
  | Some (rtxn, _) when rtxn = txn -> Page_id.Tbl.remove t.reservations pid
  | Some _ | None -> ());
  Global_locks.grant t.glocks ~node:requester ~pid ~mode;
  if need_page then Some (owner_latest_copy t pid) else None

(* Client side: obtain the transaction-level lock, going to the owner
   only when the node-level cached lock does not cover the request. *)
let acquire t (descr : Txn.t) ~pid ~mode =
  let txn = descr.Txn.id in
  check_up t;
  Env.charge_lock_op t.env t.metrics;
  (* Local strict-2PL conflict first: no message can help with that. *)
  let local_conflicts = Local_locks.conflicts t.locks pid ~except:txn ~mode in
  if not (List.is_empty local_conflicts) then Block.block (Block.Lock_conflict { blockers = local_conflicts });
  (* Fairness: a pending revocation of the cached lock stops new local
     acquisitions that would prolong it (existing holders may finish). *)
  (match Local_locks.revoke_pending t.locks pid with
  | Some (pending_mode, rtxn, rnode) when rtxn <> txn ->
    if not (txn_active_at t ~txn:rtxn ~node:rnode) then
      Local_locks.clear_revoke_pending t.locks pid
    else begin
      let already_holds =
        match Local_locks.txn_mode t.locks ~txn ~pid with
        | Some held -> Mode.covers held mode
        | None -> false
      in
      let conflicts_with_pending =
        match pending_mode with Mode.X -> true | Mode.S -> Mode.equal mode Mode.X
      in
      if conflicts_with_pending && not already_holds then
        Block.block (Block.Lock_conflict { blockers = [ rtxn ] })
    end
  | Some _ | None -> ());
  if Local_locks.cache_covers t.locks pid mode then
    t.metrics.Metrics.lock_requests_local <- t.metrics.lock_requests_local + 1
  else begin
    let owner_id = Page_id.owner pid in
    let need_page = not (Buffer_pool.contains t.pool pid) in
    let wait_from = Env.now t.env in
    if Env.tracing t.env then
      Env.emit t.env ~node:t.id Event.Lock_request
        [
          ("txn", Event.Int txn);
          ("page", Event.Str (Page_id.to_string pid));
          ("mode", Event.Str (Mode.to_string mode));
          ("owner", Event.Int owner_id);
        ];
    let page =
      if owner_id = t.id then begin
        t.metrics.Metrics.lock_requests_local <- t.metrics.lock_requests_local + 1;
        owner_grant_lock t ~requester:t.id ~txn ~pid ~mode ~need_page:false
      end
      else begin
        let owner = peer t owner_id in
        if not owner.up then Block.block (Block.Node_down { node = owner_id });
        ensure_link t ~dst:owner_id;
        t.metrics.Metrics.lock_requests_remote <- t.metrics.lock_requests_remote + 1;
        send t ~dst:owner_id ~bytes:Wire.control ();
        let page = owner_grant_lock owner ~requester:t.id ~txn ~pid ~mode ~need_page in
        let reply_bytes =
          match page with Some _ -> Wire.page (Env.config t.env) | None -> Wire.control
        in
        send owner ~dst:t.id ~bytes:reply_bytes ();
        page
      end
    in
    (match page with
    | Some p ->
      t.metrics.Metrics.cache_misses <- t.metrics.cache_misses + 1;
      ignore (install_page t p)
    | None -> ());
    Local_locks.set_cached_mode t.locks pid mode;
    (* Time spent obtaining the lock from the owner — messages, callbacks
       and any page transfer piggybacked on the grant. *)
    let wait = Env.now t.env -. wait_from in
    Env.observe t.env ~name:"lock_wait" ~node:t.id wait;
    if Env.tracing t.env then
      (* Closes the [Lock_request] opened above; the pair bounds the
         acquisition window for commit-latency attribution. *)
      Env.emit t.env ~node:t.id Event.Lock_acquired
        [
          ("txn", Event.Int txn);
          ("page", Event.Str (Page_id.to_string pid));
          ("mode", Event.Str (Mode.to_string mode));
          ("wait", Event.Float wait);
        ]
  end;
  match Local_locks.acquire t.locks ~txn ~pid ~mode with
  | Ok () -> (
    (* Controlled lock violation: if this page's lock was surrendered
       early by a committing transaction that is not yet durable, the
       grant just exposed pre-durable state — record the commit
       dependency on the acquirer.  Both ends run on this node (the
       registry is this node's, and [handle_callback] flushes before an
       early-released page can leave it), so the releaser's commit
       record precedes the acquirer's in this node's log.  The registry
       is empty when elr is off, so this is a free lookup on the
       historical pipeline. *)
    match Local_locks.early_releaser t.locks pid with
    | Some releaser when releaser <> txn && not (List.mem releaser descr.Txn.antecedents) ->
      descr.Txn.antecedents <- releaser :: descr.Txn.antecedents;
      t.dep_edges <- t.dep_edges + 1;
      if Env.tracing t.env then
        Env.emit t.env ~node:t.id Event.Commit_dep
          [
            ("txn", Event.Int txn);
            ("on", Event.Int releaser);
            ("page", Event.Str (Page_id.to_string pid));
          ]
    | Some _ | None -> ())
  | Error { Local_locks.holders } -> Block.block (Block.Lock_conflict { blockers = holders })

(* ------------------------------------------------------------------ *)
(* Log space management (§2.5)                                         *)
(* ------------------------------------------------------------------ *)

let owner_flush_page t pid =
  assert (Page_id.owner pid = t.id);
  check_up t;
  match Buffer_pool.peek t.pool pid with
  | Some frame ->
    if frame.dirty then begin
      wal_force t frame.last_lsn;
      Disk.write t.disk frame.page;
      frame.dirty <- false;
      frame.rec_lsn <- Lsn.nil
    end;
    owner_after_flush t pid ~flushed_psn:(Page.psn frame.page)
  | None ->
    let flushed_psn =
      match Disk.read t.disk pid with Some page -> Page.psn page | None -> -1
    in
    owner_after_flush t pid ~flushed_psn

let free_log_space t =
  t.metrics.Metrics.log_space_stalls <- t.metrics.log_space_stalls + 1;
  (match Dpt.entry_with_min_redo_lsn t.dpt with
  | None -> ()
  | Some entry ->
    let pid = entry.Dpt.pid in
    (* Get our latest version to the owner so its flush covers our
       updates.  The frame is cleaned in place, never evicted: it may be
       pinned by the very update whose append ran out of log space. *)
    (match Buffer_pool.peek t.pool pid with
    | Some frame when frame.dirty ->
      wal_force t frame.last_lsn;
      if Page_id.owner pid = t.id then begin
        Disk.write t.disk frame.page;
        frame.dirty <- false;
        frame.rec_lsn <- Lsn.nil;
        owner_after_flush t pid ~flushed_psn:(Page.psn frame.page)
      end
      else begin
        let owner = peer t (Page_id.owner pid) in
        if (not owner.up) || not (link_up t ~dst:owner.id) then
          Block.block (Block.Log_space { node = t.id });
        ship_to_owner t ~owner ~lsn:frame.last_lsn frame.page;
        Dpt.on_replaced t.dpt pid ~end_of_log:(Log_manager.end_lsn t.log);
        frame.dirty <- false;
        frame.rec_lsn <- Lsn.nil
      end
    | Some _ | None -> ());
    let owner_id = Page_id.owner pid in
    if owner_id = t.id then owner_flush_page t pid
    else begin
      let owner = peer t owner_id in
      if (not owner.up) || not (link_up t ~dst:owner_id) then
        Block.block (Block.Log_space { node = t.id });
      t.metrics.Metrics.flush_requests <- t.metrics.flush_requests + 1;
      send t ~dst:owner_id ~bytes:Wire.control ();
      (* the request itself (re-)registers us: an earlier flush may have
         consumed the waiter list without covering this entry *)
      register_flush_waiter owner pid ~waiter:t.id;
      owner_flush_page owner pid
      (* the flush acknowledgement already updated our DPT entry *)
    end);
  let low_water =
    let dpt_bound =
      match Dpt.min_redo_lsn t.dpt with
      | None -> Log_manager.end_lsn t.log
      | Some lsn -> lsn
    in
    (* a live transaction's undo chain pins the log from its first
       record onwards — [live], not [active]: a committing transaction
       awaiting its group-commit force still needs its undo chain (a
       crash before the force makes it a loser) *)
    List.fold_left
      (fun acc (txn : Txn.t) ->
        if Lsn.is_nil txn.Txn.first_lsn then acc else Lsn.min acc txn.Txn.first_lsn)
      dpt_bound
      (Txn_table.live t.txns)
  in
  (* Space below the low-water mark is only reclaimable once durable
     (the device clamps truncation at the forced boundary). *)
  if low_water > Log_manager.durable_lsn t.log then
    Log_manager.force t.log ~upto:(low_water - 1);
  Log_manager.truncate_to t.log low_water

let append_record t record =
  (* Rollback records always fit: without reserved undo space a full
     log could neither commit nor abort anything. *)
  let overdraft =
    match record.Record.body with Record.Clr _ | Record.Abort -> true | _ -> false
  in
  (* Freeing space may take several §2.5 rounds before the low-water
     mark actually moves (each round retires one DPT entry); once a
     round changes nothing, the log is pinned by the oldest active
     transaction's undo chain and someone must be rolled back. *)
  let state () =
    (Log_manager.available_bytes t.log, Dpt.min_redo_lsn t.dpt, Dpt.size t.dpt)
  in
  let rec go attempts =
    match Log_manager.append ~overdraft t.log record with
    | lsn -> lsn
    | exception Log_manager.Log_full ->
      let bytes, redo, size = state () in
      free_log_space t;
      let bytes', redo', size' = state () in
      if Option.equal Int.equal bytes bytes' && Option.equal Int.equal redo redo' && size = size'
      then begin
        (* A committing transaction may be the oldest pinner; flushing
           the pending batch completes it (and unpins its undo chain)
           without blocking anyone. *)
        if Group_commit.pending_count t.gc > 0 then Group_commit.flush t.gc
        else begin
        let pinner =
          List.fold_left
            (fun acc (txn : Txn.t) ->
              if Lsn.is_nil txn.Txn.first_lsn then acc
              else
                match acc with
                | None -> Some txn
                | Some best ->
                  if Lsn.compare txn.Txn.first_lsn best.Txn.first_lsn < 0 then Some txn else acc)
            None (Txn_table.active t.txns)
        in
        match pinner with
        | Some txn -> Block.block (Block.Lock_conflict { blockers = [ txn.Txn.id ] })
        | None ->
          invalid_arg
            (Printf.sprintf
               "Node.append_record: log capacity smaller than the working set (node=%d used=%d)"
               t.id (Log_manager.used_bytes t.log))
        end
      end;
      if attempts > 1024 then invalid_arg "Node.append_record: cannot free log space";
      go (attempts + 1)
  in
  go 0

(* Route a transaction record to the scheme's log.  Under the
   shared-log baseline each append is a network round to the log node —
   precisely the serialisation bottleneck the paper criticises in
   Rdb/VMS (§3.2). *)
let append_txn_record t record =
  match t.scheme with
  | Global_log { log_node } when log_node <> t.id ->
    let target = peer t log_node in
    if not target.up then Block.block (Block.Node_down { node = log_node });
    ensure_link t ~dst:log_node;
    let encoded = Record.size record in
    send t ~dst:log_node ~bytes:(Wire.log_record encoded) ();
    t.metrics.Metrics.log_records_shipped <- t.metrics.log_records_shipped + 1;
    Env.charge_lock_op t.env target.metrics (* the global log-tail latch *);
    Log_manager.append target.log record
  | Global_log _ | Local_logging | Server_logging _ | Pca_double_logging ->
    append_record t record

(* ------------------------------------------------------------------ *)
(* Transaction operations                                              *)
(* ------------------------------------------------------------------ *)

let begin_txn t ~id =
  check_up t;
  let txn = Txn.make ~id ~node:t.id in
  txn.Txn.began <- Env.now t.env;
  if Env.tracing t.env then Env.emit t.env ~node:t.id Event.Txn_begin [ ("txn", Event.Int id) ];
  Txn_table.register t.txns txn;
  txn

let active_txn t id =
  (* An injected crash can fell the node between a script's steps: the
     table was cleared with it, so the caller must see [Node_down] (a
     retryable block), not an unknown-transaction error. *)
  check_up t;
  let txn = Txn_table.find_exn t.txns id in
  if not (Txn.is_active txn) then
    invalid_arg (Printf.sprintf "Node: transaction %d is not active" id);
  txn

(* Every transaction operation below runs under [Env.with_txn]: all
   events its work emits — including owner-side work on other nodes —
   are stamped as caused by this transaction. *)

let read t ~txn ~pid ~off ~len =
  let descr = active_txn t txn in
  Env.with_txn t.env ~txn @@ fun () ->
  acquire t descr ~pid ~mode:Mode.S;
  if descr.Txn.locks_from < 0. then descr.Txn.locks_from <- Env.now t.env;
  let frame = ensure_cached_page t pid in
  Page.read frame.page ~off ~len

let read_cell t ~txn ~pid ~off =
  let descr = active_txn t txn in
  Env.with_txn t.env ~txn @@ fun () ->
  acquire t descr ~pid ~mode:Mode.S;
  if descr.Txn.locks_from < 0. then descr.Txn.locks_from <- Env.now t.env;
  let frame = ensure_cached_page t pid in
  Page.get_cell frame.page ~off

let log_update t (txn : Txn.t) pid (frame : Buffer_pool.frame) op =
  (* The append can trigger §2.5 space management, which evicts pages —
     the frame being updated must not be a victim. *)
  Buffer_pool.pin frame;
  Fun.protect ~finally:(fun () -> Buffer_pool.unpin frame) @@ fun () ->
  let psn_before = Page.psn frame.page in
  let record =
    { Record.txn = txn.Txn.id; prev = txn.Txn.last_lsn; body = Update { pid; psn_before; op } }
  in
  let lsn = append_txn_record t record in
  (* §2.2: the DPT entry carries the page's PSN and a conservative
     RedoLSN — the record's own position.  The entry is created after
     the append: the §2.5 space-management rounds a full log triggers
     inside the append could otherwise retire it prematurely. *)
  Dpt.add_if_absent t.dpt pid ~page_psn:psn_before ~end_of_log:lsn;
  txn.Txn.logged_records <- txn.Txn.logged_records + 1;
  txn.Txn.logged_bytes <- txn.Txn.logged_bytes + Record.size record;
  if Page_id.owner pid <> t.id then
    txn.Txn.remote_updated <- Page_id.Set.add pid txn.Txn.remote_updated;
  Txn.record_logged txn lsn;
  Record.apply_op frame.page op;
  Page.bump_psn frame.page;
  Buffer_pool.mark_dirty frame ~lsn;
  Dpt.on_update t.dpt pid ~new_psn:(Page.psn frame.page)

let update_bytes t ~txn ~pid ~off s =
  let txn = active_txn t txn in
  Env.with_txn t.env ~txn:txn.Txn.id @@ fun () ->
  acquire t txn ~pid ~mode:Mode.X;
  if txn.Txn.locks_from < 0. then txn.Txn.locks_from <- Env.now t.env;
  let frame = ensure_cached_page t pid in
  let before = Page.read frame.page ~off ~len:(String.length s) in
  log_update t txn pid frame (Record.Physical { off; before; after = s })

let update_delta t ~txn ~pid ~off delta =
  let txn = active_txn t txn in
  Env.with_txn t.env ~txn:txn.Txn.id @@ fun () ->
  acquire t txn ~pid ~mode:Mode.X;
  if txn.Txn.locks_from < 0. then txn.Txn.locks_from <- Env.now t.env;
  let frame = ensure_cached_page t pid in
  log_update t txn pid frame (Record.Delta { off; delta })

(* Per-scheme durable-commit work.  This is experiment E1's subject:
   what must happen between "commit requested" and "commit durable". *)
let commit_scheme_work t (txn : Txn.t) lsn =
  match t.scheme with
  | Local_logging ->
    (* The paper's entire commit path: one local log force, zero
       messages.  The group-commit batch is always empty here —
       batching commits take the [Committing] branch in [commit]
       instead — and the log's after-force hook would sweep it
       anyway. *)
    Log_manager.force t.log ~upto:lsn
  | Server_logging { server } ->
    (* ARIES/CSA: the transaction's log records travel to the server in
       one batch; the server appends them to the only durable log,
       forces it, and acknowledges. *)
    let srv = peer t server in
    if not srv.up then Block.block (Block.Node_down { node = server });
    ensure_link t ~dst:server;
    send t ~dst:server ~commit_path:true ~bytes:(Wire.log_record txn.Txn.logged_bytes) ();
    t.metrics.Metrics.log_records_shipped <-
      t.metrics.log_records_shipped + txn.Txn.logged_records;
    if server <> t.id then begin
      Env.charge_cpu_for t.env srv.metrics
        (float_of_int txn.Txn.logged_records
        *. (Env.config t.env).Repro_sim.Config.cpu_per_log_record);
      srv.metrics.Metrics.log_appends <- srv.metrics.log_appends + txn.Txn.logged_records;
      srv.metrics.Metrics.log_bytes <- srv.metrics.log_bytes + txn.Txn.logged_bytes;
      Env.charge_log_force t.env srv.metrics ~bytes:txn.Txn.logged_bytes ();
      send srv ~dst:t.id ~commit_path:true ~bytes:Wire.control ()
    end
    else Log_manager.force t.log ~upto:lsn
  | Pca_double_logging ->
    (* Local force, then every updated remote page travels to its PCA
       node at commit, together with its log records, which the PCA
       node appends to its own log too (double logging). *)
    Log_manager.force t.log ~upto:lsn;
    let remote = txn.Txn.remote_updated in
    let n_remote = max 1 (Page_id.Set.cardinal remote) in
    let bytes_per_page = txn.Txn.logged_bytes / n_remote in
    Page_id.Set.iter
      (fun pid ->
        let owner = peer t (Page_id.owner pid) in
        if not owner.up then Block.block (Block.Node_down { node = owner.id });
        ensure_link t ~dst:owner.id;
        (match Buffer_pool.peek t.pool pid with
        | Some frame -> ship_to_owner t ~owner ~commit_path:true ~lsn:frame.last_lsn frame.page
        | None -> () (* already replaced to the owner earlier *));
        send t ~dst:owner.id ~commit_path:true ~bytes:(Wire.log_record bytes_per_page) ();
        t.metrics.Metrics.log_records_shipped <- t.metrics.log_records_shipped + 1;
        owner.metrics.Metrics.log_appends <- owner.metrics.log_appends + 1;
        owner.metrics.Metrics.log_bytes <- owner.metrics.log_bytes + bytes_per_page;
        Env.charge_log_force t.env owner.metrics ~bytes:bytes_per_page ())
      remote
  | Global_log { log_node } ->
    (* The commit record already travelled to the shared log; force it
       there and wait for the acknowledgement. *)
    let ln = peer t log_node in
    ensure_link t ~dst:log_node;
    Log_manager.force ln.log ~upto:lsn;
    if log_node <> t.id then send ln ~dst:t.id ~commit_path:true ~bytes:Wire.control ()

(* E9 ablation: without inter-transaction caching, the node gives the
   cached locks (and the pages under them — callback-locking invariant)
   back to their owners as soon as no local transaction holds them. *)
let release_unused_cached_locks t =
  let cached = Local_locks.cached_pages t.locks in
  (* Coalesced WAL-before-ship: one force to the max last-LSN over every
     dirty page about to leave this round, instead of one force per
     page.  Conservatively covers a superset (owner-up / link checks
     happen per page below) — forcing a little further is always
     WAL-safe. *)
  let ship_upto =
    List.fold_left
      (fun acc (pid, _mode) ->
        if (not (Local_locks.any_txn_holds t.locks pid)) && Page_id.owner pid <> t.id then
          match Buffer_pool.peek t.pool pid with
          | Some (frame : Buffer_pool.frame) when frame.dirty -> Lsn.max acc frame.last_lsn
          | Some _ | None -> acc
        else acc)
      Lsn.nil cached
  in
  wal_force t ship_upto;
  List.iter
    (fun (pid, _mode) ->
      if
        (not (Local_locks.any_txn_holds t.locks pid))
        && Page_id.owner pid <> t.id
        (* Partitioned from a live owner: keep the cached lock and the
           page — dropping them locally while the owner still records
           the grant would break the cross-node lock invariant.  The
           next end-of-transaction retries the release. *)
        && ((not (peer t (Page_id.owner pid)).up) || link_up t ~dst:(Page_id.owner pid))
      then begin
        (match Buffer_pool.peek t.pool pid with
        | Some frame ->
          if frame.dirty then begin
            (* covered by the round's coalesced force above *)
            let owner = peer t (Page_id.owner pid) in
            if owner.up then begin
              ship_to_owner t ~owner ~lsn:frame.last_lsn frame.page;
              Dpt.on_replaced t.dpt pid ~end_of_log:(Log_manager.end_lsn t.log)
            end
          end;
          Buffer_pool.remove t.pool pid
        | None -> ());
        Local_locks.drop_cached t.locks pid;
        let owner = peer t (Page_id.owner pid) in
        if owner.up then begin
          send t ~dst:owner.id ~bytes:Wire.control ();
          Global_locks.release owner.glocks ~node:t.id ~pid
        end
      end)
    cached

let end_of_txn_lock_release t txn_id =
  Local_locks.release_txn t.locks ~txn:txn_id;
  if not t.retain_cached_locks then release_unused_cached_locks t

(* Lock-hold duration: first successful acquire -> the release that
   actually freed the locks (early or terminal).  The [-1.] reset makes
   the observation idempotent — the terminal release after an early one
   observes nothing. *)
let observe_lock_hold t (txn : Txn.t) =
  if txn.Txn.locks_from >= 0. then begin
    Env.observe t.env ~name:"lock_hold" ~node:t.id (Env.now t.env -. txn.Txn.locks_from);
    txn.Txn.locks_from <- -1.
  end

(* Tentpole: controlled lock violation.  A committing transaction
   surrenders its txn-level page locks at batch submit instead of
   holding them across the group-commit window; conflicting local work
   proceeds immediately and records a commit dependency: the release
   registers [txn] as each page's early releaser (see [acquire]).  The
   summary event carries the transaction id (the per-page trace comes
   from the lock-table tracer). *)
let early_lock_release t (txn : Txn.t) =
  observe_lock_hold t txn;
  let released = Local_locks.release_txn_early t.locks ~txn:txn.Txn.id in
  if Env.tracing t.env && not (List.is_empty released) then
    Env.emit t.env ~node:t.id Event.Lock_early_release
      [ ("txn", Event.Int txn.Txn.id); ("pages", Event.Int (List.length released)) ]

(* Everything after "the commit record is durable": release locks,
   retire the descriptor, account.  [commit_from] is when the commit was
   requested (= when the transaction joined the batch, under group
   commit), so commit_latency includes the batching wait. *)
let complete_commit t (txn : Txn.t) ~commit_from =
  (* A commit dependency is satisfied by log order: the antecedent's
     commit record precedes this one in the same log, and batches
     complete in LSN order, so every antecedent has completed by now.
     An antecedent still [Committing] means completion ran out of
     order, and reporting this commit durable could outlive a crash
     the antecedent does not survive. *)
  (match txn.Txn.antecedents with
  | [] -> ()
  | antecedents ->
    List.iter
      (fun a ->
        match Txn_table.find t.txns a with
        | Some { Txn.state = Txn.Committing; _ } ->
          invalid_arg
            (Printf.sprintf "Node %d: T%d completed before its commit antecedent T%d" t.id
               txn.Txn.id a)
        | Some _ | None -> ())
      antecedents);
  (* Re-assert the causal context: a batched completion runs inside
     whichever operation forced the batch — another transaction's
     commit, an eviction's WAL force — and this transaction's release
     and commit events must not be attributed to that trigger. *)
  Env.with_txn t.env ~txn:txn.Txn.id @@ fun () ->
  txn.Txn.state <- Txn.Committed;
  let durable_at = Env.now t.env in
  (* commit request -> durable: the paper's E1 subject *)
  Env.observe t.env ~name:"commit_latency" ~node:t.id (durable_at -. commit_from);
  Env.observe t.env ~name:"txn_duration" ~node:t.id (durable_at -. txn.Txn.began);
  observe_lock_hold t txn;
  end_of_txn_lock_release t txn.Txn.id;
  Local_locks.settle_early t.locks ~txn:txn.Txn.id;
  Txn_table.remove t.txns txn.Txn.id;
  t.metrics.Metrics.txn_committed <- t.metrics.txn_committed + 1;
  if Env.tracing t.env then
    Env.emit t.env ~node:t.id Event.Txn_commit
      [ ("txn", Event.Int txn.Txn.id); ("dur", Event.Float (durable_at -. txn.Txn.began)) ]

(* Group-commit completion: the batch force (or a piggybacking force)
   just made [txn]'s commit record durable.  Idempotent — a transaction
   that is no longer [Committing] (crash wiped the table) is left
   alone. *)
let finish_commit t ~txn ~submitted_at =
  match Txn_table.find t.txns txn with
  | Some ({ Txn.state = Txn.Committing; _ } as descr) ->
    complete_commit t descr ~commit_from:submitted_at
  | Some _ | None -> ()

(* Install the group-commit hooks.  [on_durable] runs BEFORE the node's
   own completion work so a caller-side durable registry is written
   first — completion can hit an injected crash point, and the caller
   must still know the commit survived. *)
let wire_group_commit t ?on_lost ~on_durable () =
  Group_commit.set_hooks t.gc ?on_lost
    ~before_force:(fun () ->
      (* The batch is still pending here: an injected crash loses every
         member — none of their commit records were forced. *)
      maybe_crashpoint t Repro_fault.Fault_plan.Commit_force)
    ~on_durable:(fun ~txn ~submitted_at ->
      on_durable ~txn ~submitted_at;
      finish_commit t ~txn ~submitted_at)
    ()

let create env ~id ~pool_capacity ?log_capacity ?(scheme = Local_logging)
    ?(retain_cached_locks = true) () =
  let t =
    Node_state.create env ~id ~pool_capacity ~log_capacity ~scheme ~retain_cached_locks
  in
  (* Standalone default: complete commits with no external registry.
     [Cluster.create] re-wires with its durable-commit registry. *)
  wire_group_commit t ~on_durable:(fun ~txn:_ ~submitted_at:_ -> ()) ();
  t

let commit t ~txn =
  check_up t;
  let txn = active_txn t txn in
  Env.with_txn t.env ~txn:txn.Txn.id @@ fun () ->
  let commit_from = Env.now t.env in
  let lsn =
    append_txn_record t { Record.txn = txn.Txn.id; prev = txn.Txn.last_lsn; body = Commit }
  in
  Txn.record_logged txn lsn;
  (* The window the tentpole cares about: the Commit record is appended
     but not yet forced — a crash here must abort the transaction at
     recovery (its commit was never acknowledged). *)
  maybe_crashpoint t Repro_fault.Fault_plan.Commit_force;
  (* After the crash point: a transaction felled there never submitted,
     so the auditor's batch-loss check correctly expects no commit. *)
  if Env.tracing t.env then
    Env.emit t.env ~node:t.id Event.Commit_submit
      [ ("txn", Event.Int txn.Txn.id); ("lsn", Event.Int lsn) ];
  match t.scheme with
  | Local_logging when Group_commit.batching t.gc ->
    (* Group commit: join the node's pending batch instead of forcing
       alone.  Not durable yet — the caller must poll the outcome. *)
    txn.Txn.state <- Txn.Committing;
    (* Early release happens before [submit]: if the submit fills the
       batch and flushes immediately, completion settles the entries
       this release just registered. *)
    if Repro_sim.Config.early_release_enabled (Env.config t.env) then early_lock_release t txn;
    Group_commit.submit t.gc ~txn:txn.Txn.id ~lsn
  | Local_logging | Server_logging _ | Pca_double_logging | Global_log _ ->
    commit_scheme_work t txn lsn;
    complete_commit t txn ~commit_from

let undo_ops t (txn : Txn.t) =
  {
    Undo.read_record = (fun lsn -> Log_manager.read (txn_log t) lsn);
    perform_undo =
      (fun ~txn:txn_id ~pid ~op ~undo_next ->
        maybe_crashpoint t Repro_fault.Fault_plan.Rollback;
        (* The page may have been replaced since the update; re-fetch it
           from the owner (§2.2: "the rollback procedure may have to
           fetch some of the affected pages from the owner nodes"). *)
        let frame = ensure_cached_page t pid in
        Buffer_pool.pin frame;
        Fun.protect ~finally:(fun () -> Buffer_pool.unpin frame) @@ fun () ->
        let psn_before = Page.psn frame.page in
        let record =
          {
            Record.txn = txn_id;
            prev = txn.Txn.last_lsn;
            body = Clr { pid; psn_before; op; undo_next };
          }
        in
        let lsn = append_txn_record t record in
        Dpt.add_if_absent t.dpt pid ~page_psn:psn_before ~end_of_log:lsn;
        txn.Txn.logged_records <- txn.Txn.logged_records + 1;
        txn.Txn.logged_bytes <- txn.Txn.logged_bytes + Record.size record;
        Txn.record_logged txn lsn;
        Record.apply_op frame.page op;
        Page.bump_psn frame.page;
        Buffer_pool.mark_dirty frame ~lsn;
        Dpt.on_update t.dpt pid ~new_psn:(Page.psn frame.page);
        lsn);
  }

let abort t ~txn =
  check_up t;
  let txn = active_txn t txn in
  Env.with_txn t.env ~txn:txn.Txn.id @@ fun () ->
  let _last = Undo.rollback (undo_ops t txn) ~txn:txn.Txn.id ~from:txn.Txn.last_lsn ~upto:Lsn.nil in
  let lsn =
    append_txn_record t { Record.txn = txn.Txn.id; prev = txn.Txn.last_lsn; body = Abort }
  in
  Txn.record_logged txn lsn;
  txn.Txn.state <- Txn.Aborted;
  observe_lock_hold t txn;
  end_of_txn_lock_release t txn.Txn.id;
  Txn_table.remove t.txns txn.Txn.id;
  t.metrics.Metrics.txn_aborted <- t.metrics.txn_aborted + 1;
  if Env.tracing t.env then
    Env.emit t.env ~node:t.id Event.Txn_abort [ ("txn", Event.Int txn.Txn.id) ]

let savepoint t ~txn name =
  check_up t;
  let txn = active_txn t txn in
  Env.with_txn t.env ~txn:txn.Txn.id @@ fun () ->
  let lsn =
    append_txn_record t { Record.txn = txn.Txn.id; prev = txn.Txn.last_lsn; body = Savepoint name }
  in
  Txn.record_logged txn lsn;
  Txn.add_savepoint txn name lsn

let rollback_to t ~txn name =
  check_up t;
  let txn = active_txn t txn in
  match Txn.savepoint_lsn txn name with
  | None -> invalid_arg (Printf.sprintf "Node.rollback_to: unknown savepoint %S" name)
  | Some sp ->
    Env.with_txn t.env ~txn:txn.Txn.id @@ fun () ->
    let _last = Undo.rollback (undo_ops t txn) ~txn:txn.Txn.id ~from:txn.Txn.last_lsn ~upto:sp in
    Txn.release_savepoints_after txn sp

(* ------------------------------------------------------------------ *)
(* Maintenance                                                         *)
(* ------------------------------------------------------------------ *)

let checkpoint t =
  check_up t;
  (* [snapshot_active] excludes [Committing] transactions, which is
     safe: a committing transaction's commit record precedes the
     checkpoint-begin record in the log, so the checkpoint's force
     below makes the commit durable too — analysis never needs it as a
     loser once this checkpoint is the restart point. *)
  ignore
    (Repro_aries.Checkpoint.take t.log t.env t.metrics ~dpt:(Dpt.snapshot t.dpt)
       ~active:(Txn_table.snapshot_active t.txns) ~master:t.master
       ~on_before_master:(fun () ->
         (* The checkpoint's force has already swept the batch:
            piggybacked pending commits completed BEFORE this crash
            point can fire — their records are durable now, and
            dropping them as "pending" at the crash would let the
            driver retry a transaction that recovery will also redo. *)
         maybe_crashpoint t Repro_fault.Fault_plan.Checkpoint))

let install_recovered_page t page ~waiters =
  let pid = Page.id page in
  Buffer_pool.remove t.pool pid;
  make_room t;
  let frame = Buffer_pool.install t.pool (Page.copy page) in
  frame.dirty <- true;
  List.iter (fun waiter -> if waiter <> t.id then register_flush_waiter t pid ~waiter) waiters

let check_invariants t =
  Local_locks.check_invariants t.locks;
  Global_locks.check_invariants t.glocks;
  (* Callback-locking invariant: a cached *remote* page implies a cached
     lock.  Own pages are exempt: the owner caches replaced dirty copies
     it is flush-responsible for, and it is itself the lock service. *)
  List.iter
    (fun pid ->
      if Page_id.owner pid <> t.id && not (Local_locks.cache_covers t.locks pid Mode.S) then
        invalid_arg (Format.asprintf "node %d caches %a without a lock" t.id Page_id.pp pid))
    (Buffer_pool.cached_ids t.pool);
  (* A dirty frame always has a DPT entry (it was dirtied locally or
     received as a replaced page we are flush-responsible for). *)
  List.iter
    (fun (frame : Buffer_pool.frame) ->
      let pid = Page.id frame.page in
      if Page_id.owner pid <> t.id && not (Dpt.mem t.dpt pid) then
        invalid_arg
          (Format.asprintf "node %d holds dirty remote page %a without a DPT entry" t.id
             Page_id.pp pid))
    (Buffer_pool.dirty_frames t.pool)
