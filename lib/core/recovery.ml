module Env = Repro_sim.Env
module Metrics = Repro_sim.Metrics
module Page = Repro_storage.Page
module Page_id = Repro_storage.Page_id
module Lsn = Repro_wal.Lsn
module Record = Repro_wal.Record
module Log_manager = Repro_wal.Log_manager
module Buffer_pool = Repro_buffer.Buffer_pool
module Dpt = Repro_buffer.Dpt
module Mode = Repro_lock.Mode
module Local_locks = Repro_lock.Local_locks
module Global_locks = Repro_lock.Global_locks
module Txn = Repro_tx.Txn
module Txn_table = Repro_tx.Txn_table
module Analysis = Repro_aries.Analysis
module Redo = Repro_aries.Redo
module Undo = Repro_aries.Undo
module Fault_plan = Repro_fault.Fault_plan
module Injector = Repro_fault.Injector
open Node_state

let bump_transfers n =
  n.metrics.Metrics.recovery_page_transfers <- n.metrics.recovery_page_transfers + 1

let bump_redone n =
  n.metrics.Metrics.recovery_pages_redone <- n.metrics.recovery_pages_redone + 1

(* Prepend [v] to [pid]'s list in [tbl]. *)
let push tbl pid v =
  Page_id.Tbl.replace tbl pid (v :: Option.value (Page_id.Tbl.find_opt tbl pid) ~default:[])

(* [n] holds [pid] in X mode: in the owner's table and in its own cache. *)
let grant_x n ~owner pid =
  Global_locks.grant owner.glocks ~node:n.id ~pid ~mode:Mode.X;
  Local_locks.set_cached_mode n.locks pid Mode.X

(* ------------------------------------------------------------------ *)
(* Restartability and peer-fault machinery                             *)
(* ------------------------------------------------------------------ *)

(* Does the plan give recovery's own crash points any probability?  If
   so the injector stays live for the whole of recovery — the new crash
   points fire, messages drop and links partition mid-protocol — and the
   recovery code must retry, restart or defer its way through.  With all
   of them at zero (every legacy plan) the injector is disarmed as before,
   keeping historical seeds bit-identical. *)
let recovery_faults_on (plan : Fault_plan.t) =
  List.exists
    (fun p -> Fault_plan.in_restart p && Fault_plan.prob plan.Fault_plan.crashpoints p > 0.)
    Fault_plan.points

(* Bounded retry with exponential backoff around a recovery exchange
   with [dst].  A dropped message is already retransmitted inside
   [send]; what can stall an exchange is an injected partition, so probe
   the link first and back off while it lasts.  Each failed probe drains
   the partition's bounded budget, so the loop heals it in practice; if
   the budget outlasts the attempts, surface the retryable
   [Net_unreachable] — the driver re-enters recovery later.  With the
   injector disarmed (legacy plans) the probe short-circuits to [true]
   without consuming randomness, so this wrapper is free there. *)
let max_exchange_attempts = 8

let recovery_exchange src ~dst f =
  if dst = src.id then f ()
  else begin
    let rec go attempt =
      if link_up src ~dst then f ()
      else if attempt >= max_exchange_attempts - 1 then
        Block.block (Block.Net_unreachable { src = src.id; dst })
      else begin
        (* the failed probe already cost one RTO; add the backoff wait,
           doubling per attempt *)
        (match Env.faults src.env with
        | Some inj -> Env.charge_cpu src.env (Injector.rto inj *. float_of_int ((1 lsl attempt) - 1))
        | None -> ());
        src.metrics.Metrics.recovery_retries <- src.metrics.recovery_retries + 1;
        Env.emit src.env ~node:src.id Repro_obs.Event.Recovery_retry
          [ ("dst", Repro_obs.Event.Int dst); ("attempt", Repro_obs.Event.Int (attempt + 1)) ];
        go (attempt + 1)
      end
    in
    go 0
  end

(* Raised by a redo round that meets a record whose PSN is ahead of the
   page: some node's updates between the base and this record are
   missing from the participant set.  With a deferred (down,
   not-yet-recovering) peer to attribute the gap to, the page's recovery
   parks; without one it is a protocol bug and the caller re-raises as
   [Invalid_argument]. *)
exception Redo_gap of { node : int; psn : int; page_psn : int }

(* Attribute a redo gap to a down peer: prefer a deferred node that
   holds a retained lock on the page (its uncompensated updates are the
   missing PSNs), fall back to any deferred node. *)
let pick_blocker ~deferred ~owner ~pid =
  let is_deferred id = List.exists (fun (d : Node_state.t) -> d.id = id) deferred in
  let holders = Global_locks.holders owner.glocks ~pid in
  match List.find_opt (fun (holder, _) -> is_deferred holder) holders with
  | Some (holder, _) -> Some holder
  | None -> ( match deferred with d :: _ -> Some d.id | [] -> None)

let emit_deferred owner ~pid action attrs =
  Env.emit owner.env ~node:owner.id Repro_obs.Event.Recovery_deferred
    (("action", Repro_obs.Event.Str action)
    :: ("page", Repro_obs.Event.Str (Format.asprintf "%a" Page_id.pp pid))
    :: attrs)

let park_deferred ~owner ~pid ~blocker =
  Page_id.Tbl.replace owner.deferred_pages pid blocker;
  owner.metrics.Metrics.recovery_deferred_pages <- owner.metrics.recovery_deferred_pages + 1;
  emit_deferred owner ~pid "parked" [ ("blocker", Repro_obs.Event.Int blocker) ]

let unpark_deferred ~owner ~pid =
  Page_id.Tbl.remove owner.deferred_pages pid;
  owner.metrics.Metrics.recovery_deferred_completed <-
    owner.metrics.recovery_deferred_completed + 1;
  emit_deferred owner ~pid "completed" []

(* ------------------------------------------------------------------ *)
(* The recovery context                                                *)
(* ------------------------------------------------------------------ *)

type strategy = Psn_coordinated | Merged_logs

(* Every node's view of a page under recovery: its DPT entry. *)
type claim = { claimant : Node_state.t; entry : Dpt.entry }

(* One page to recover: its coordinator, base version and claimants. *)
type job = { pid : Page_id.t; coordinator : Node_state.t; base : Page.t; involved : claim list }

let job_owner job = peer job.coordinator (Page_id.owner job.pid)

(* One recovery attempt, built once by [run]: the batch, and what the
   steps below fill in, in step order. *)
type ctx = {
  env : Env.t;
  crashed : Node_state.t list;
  operational : Node_state.t list;
  deferred : Node_state.t list;
  crashed_ids : int list;
  live : bool;  (** recovery-class faults armed: see [recovery_faults_on] *)
  mutable losers_by_node : (Node_state.t * Record.active_txn list) list;  (** analysis *)
  mutable jobs : job list;  (** gather: one per page, in insertion order once it returns *)
  mutable job_pages : Page_id.Set.t;  (** gather: the pages of [jobs] *)
  mutable completions : (Node_state.t * Page_id.t) list;  (** gather: parked pages to complete *)
  mutable replay : job -> Page.t -> unit;  (** psn_lists / merge_pull: apply a job's records *)
  mutable redo_applied : int;  (** redo: applied records, for [probe] *)
}

(* Probe the Recovery_redo crash point once every [redo_crash_interval]
   applied redo records, not on every record: the interesting schedules
   are "partway through a page's redo", and probing each record would
   burn the crash budget before the later phases see any faults.  The
   count runs across all jobs, so long recoveries accumulate chances
   even when each page replays only a few records. *)
let redo_crash_interval = 4

let probe ctx m =
  ctx.redo_applied <- ctx.redo_applied + 1;
  if ctx.redo_applied mod redo_crash_interval = 0 then
    Node.maybe_crashpoint m Fault_plan.Recovery_redo

(* Apply one of [m]'s records to [page], PSN-guarded: a record ahead of
   the page is a gap in the participant set. *)
let apply_record ctx m page ~psn_before ~op =
  match Redo.apply page ~psn_before ~op with
  | Redo.Applied | Redo.Already_applied -> probe ctx m
  | Redo.Not_yet -> raise (Redo_gap { node = m.id; psn = psn_before; page_psn = Page.psn page })

(* ------------------------------------------------------------------ *)
(* Step: analysis (§2.3.1/§2.4)                                        *)
(* ------------------------------------------------------------------ *)

let analysis ctx =
  ctx.losers_by_node <-
    List.map
      (fun n ->
        (* A torn crash can leave garbage bytes beyond the last whole
           record; seal trims the log back to a true record boundary so
           the scans below — and every later append — see a clean tail. *)
        let (_discarded : int) = Log_manager.seal n.log in
        let result = Analysis.run n.log ~master:n.master in
        Dpt.load_snapshot n.dpt result.Analysis.dpt;
        (n, result.Analysis.losers))
      ctx.crashed;
  List.iter (fun (n, _) -> Node.maybe_crashpoint n Fault_plan.Recovery_analysis) ctx.losers_by_node

(* ------------------------------------------------------------------ *)
(* Step: lock reconstruction (§2.3.3)                                  *)
(* ------------------------------------------------------------------ *)

(* The pages the undo phase will actually write: each loser's
   uncompensated updates, found by walking the undo chains (rather than
   trusting the analysis scan), which also covers updates older than
   the last checkpoint.  A CLR's page is deliberately NOT collected:
   undo skips past it via [undo_next], so updates that were durably
   compensated before the crash (a finished savepoint rollback or
   abort) leave nothing to lock — and the transaction may have
   legitimately released that lock before the crash, so re-granting X
   here would collide with a surviving peer's grant. *)
let loser_pages n (losers : Record.active_txn list) =
  List.fold_left
    (fun acc (l : Record.active_txn) ->
      let rec go acc lsn =
        if Lsn.is_nil lsn then acc
        else
          let r = Log_manager.read n.log lsn in
          match r.Record.body with
          | Update { pid; _ } -> go (Page_id.Set.add pid acc) r.Record.prev
          | Clr { undo_next; _ } -> go acc undo_next
          | Savepoint _ -> go acc r.Record.prev
          | Commit | Abort | Checkpoint_begin _ | Checkpoint_end -> acc
      in
      go acc l.last_lsn)
    Page_id.Set.empty losers

let lock_reconstruction ctx =
  List.iter
    (fun n ->
      List.iter
        (fun m ->
          recovery_exchange m ~dst:n.id @@ fun () ->
          (* Operational owners release the crashed node's shared locks
             and retain its exclusive ones. *)
          let (_released : Page_id.t list) =
            Global_locks.release_all_shared_of_node m.glocks ~node:n.id
          in
          let x_pages = Global_locks.x_pages_of_node m.glocks ~node:n.id in
          send m ~dst:n.id ~recovery:true ~bytes:(Wire.listing ~entries:(List.length x_pages)) ();
          List.iter (fun pid -> Local_locks.set_cached_mode n.locks pid Mode.X) x_pages;
          (* Locks the peer had acquired from the crashed node rebuild
             the crashed node's owner-side table. *)
          let held = Local_locks.cached_pages_owned_by m.locks n.id in
          send m ~dst:n.id ~recovery:true ~bytes:(Wire.listing ~entries:(List.length held)) ();
          List.iter (fun (pid, mode) -> Global_locks.grant n.glocks ~node:m.id ~pid ~mode) held)
        ctx.operational)
    ctx.crashed;
  (* Re-establish the X locks the crashed node's losers held: when the
     owner survived they are already retained there (§2.3.3), but when
     the owner crashed too, both lock tables are gone and the locks must
     be re-granted before undo — otherwise another node could be handed
     a stale copy while the undo works on its own. *)
  List.iter
    (fun (n, losers) ->
      Page_id.Set.iter
        (fun pid -> grant_x n ~owner:(peer n (Page_id.owner pid)) pid)
        (loser_pages n losers))
    ctx.losers_by_node

(* ------------------------------------------------------------------ *)
(* Step: gather — pages to recover (§2.3.1), involved nodes (§2.3.2)   *)
(* ------------------------------------------------------------------ *)

(* Queue [job] and mark its page recovering at the owner.  The first job
   for a page wins: a page can be claimed through several categories
   when several nodes crashed. *)
let add_job ctx job =
  if not (Page_id.Set.mem job.pid ctx.job_pages) then begin
    let owner = job_owner job in
    owner.recovering_pages <- Page_id.Set.add job.pid owner.recovering_pages;
    ctx.job_pages <- Page_id.Set.add job.pid ctx.job_pages;
    ctx.jobs <- job :: ctx.jobs
  end

(* The claims of [nodes] on [pid] whose CurrPSN is ahead of [base]: the
   nodes involved in rebuilding the page (§2.3.2). *)
let claims_above ~base nodes pid =
  List.filter_map
    (fun m ->
      match Dpt.find m.dpt pid with
      | Some entry when entry.Dpt.curr_psn > Page.psn base -> Some { claimant = m; entry }
      | Some _ | None -> None)
    nodes

(* A live cache at [m] holds the page: fetch it, no redo needed (§2.3.1:
   pages in the cache of some node contain all the updates performed
   before the owner's crash).  The ship follows the WAL rule like any
   other: the cacher's log is forced up to the copy's last update first,
   and the cacher records the replacement so the eventual flush ack
   settles its DPT entry. *)
let fetch_cached_copy ctx n ~cacher:m pid =
  recovery_exchange n ~dst:m.id (fun () ->
      send n ~dst:m.id ~recovery:true ~bytes:Wire.control ();
      let frame = match Buffer_pool.peek m.pool pid with Some f -> f | None -> assert false in
      (* the survivor's force also completes whatever of its own
         pending group-commit batch it made durable *)
      if frame.Buffer_pool.dirty && not (Lsn.is_nil frame.Buffer_pool.last_lsn) then
        Log_manager.force m.log ~upto:frame.Buffer_pool.last_lsn;
      send m ~dst:n.id ~recovery:true ~bytes:(Wire.page (Env.config ctx.env)) ();
      bump_transfers n;
      (* The cacher keeps its (possibly dirty) copy and therefore also its
         DPT entry — §2.2 forbids dropping an entry for an updated page
         still present in the local cache. *)
      Node.install_recovered_page n (Page.copy frame.Buffer_pool.page) ~waiters:[])

(* §2.3.2: nodes whose CurrPSN does not exceed the base version's PSN
   are not involved; they drop their entry, unless they hold a lock on
   the page, in which case the entry survives with a refreshed
   RedoLSN (§2.3.4 last paragraph). *)
let dismiss_uninvolved ~owner uninvolved =
  List.iter
    (fun c ->
      let m = c.claimant in
      let pid = c.entry.Dpt.pid in
      if m.id <> owner.id then send owner ~dst:m.id ~recovery:true ~bytes:Wire.control ();
      if Local_locks.cache_covers m.locks pid Mode.S then
        Dpt.set_redo_lsn m.dpt pid (Log_manager.end_lsn m.log)
      else Dpt.drop m.dpt pid)
    uninvolved

(* Category (a): pages owned by a crashed node [n].  [n] gathers peer
   cache listings and DPT entries for its pages, and its own entries for
   them.  A page alive in an operational cache is fetched; any other
   claimed page is rebuilt from [n]'s latest copy by the claimants ahead
   of it. *)
let gather_owned ctx =
  List.iter
    (fun n ->
      let claims : claim list Page_id.Tbl.t = Page_id.Tbl.create 16 in
      let cachers : Node_state.t list Page_id.Tbl.t = Page_id.Tbl.create 16 in
      let add_claim c = push claims c.entry.Dpt.pid c in
      List.iter (fun e -> add_claim { claimant = n; entry = e }) (Dpt.entries_owned_by n.dpt n.id);
      List.iter
        (fun m ->
          recovery_exchange m ~dst:n.id @@ fun () ->
          let entries = Dpt.entries_owned_by m.dpt n.id in
          send m ~dst:n.id ~recovery:true ~bytes:(Wire.listing ~entries:(List.length entries)) ();
          List.iter
            (fun e ->
              add_claim { claimant = m; entry = e };
              (* Reconstruct the owner's flush-waiter list: each claimant
                 expects an acknowledgement when the page is next forced. *)
              Node.register_flush_waiter n e.Dpt.pid ~waiter:m.id)
            entries)
        (List.filter (fun m -> m.id <> n.id) (ctx.crashed @ ctx.operational));
      List.iter
        (fun m ->
          recovery_exchange m ~dst:n.id @@ fun () ->
          let cached = Buffer_pool.cached_ids_owned_by m.pool n.id in
          send m ~dst:n.id ~recovery:true ~bytes:(Wire.listing ~entries:(List.length cached)) ();
          List.iter (fun pid -> push cachers pid m) cached)
        ctx.operational;
      Page_id.Tbl.iter
        (fun pid claims_for_page ->
          match Page_id.Tbl.find_opt cachers pid with
          | Some (m :: _) -> fetch_cached_copy ctx n ~cacher:m pid
          | Some [] | None ->
            let base = Node.owner_latest_copy n pid in
            let involved, uninvolved =
              List.partition (fun c -> c.entry.Dpt.curr_psn > Page.psn base) claims_for_page
            in
            dismiss_uninvolved ~owner:n uninvolved;
            if not (List.is_empty involved) then add_job ctx { pid; coordinator = n; base; involved })
        claims)
    ctx.crashed

(* Category (c): pages an earlier recovery parked on a peer that is in
   THIS batch — the blocker's log is finally readable, so the full redo
   can run.  Unlike category (b), the claims span every participating
   node: operational claimants kept their DPT entries precisely because
   the parked page never advanced past their updates.  Gathered before
   category (b) so the first-job-wins rule keeps the completion job (the
   (b) job would only replay the crashed nodes' share). *)
let gather_parked ctx =
  List.iter
    (fun owner ->
      let parked =
        Page_id.Tbl.fold (fun pid blocker acc -> (pid, blocker) :: acc) owner.deferred_pages []
      in
      List.iter
        (fun (pid, blocker) ->
          if List.mem blocker ctx.crashed_ids then begin
            let base = Node.owner_latest_copy owner pid in
            let claims = claims_above ~base (ctx.crashed @ ctx.operational) pid in
            (* An operational claimant's records become part of a page
               copy that will outlive it at another node: WAL discipline
               demands they are durable first, like any pre-ship force. *)
            List.iter
              (fun { claimant = m; _ } -> if m.up then Log_manager.force_all m.log)
              claims;
            match claims with
            | [] ->
              (* every claim died with the blocker's torn tail: the base
                 already is the latest surviving state *)
              unpark_deferred ~owner ~pid
            | _ :: _ ->
              (* The owner coordinates and hosts the rebuilt copy: it
                 kept the X grant from the attempt that parked the page,
                 and every record feeding the copy is durable (a crashed
                 node's log is all-durable after its tear; operational
                 claimants were just forced), so the confinement rule
                 for unforced effects is not in play. *)
              ctx.completions <- (owner, pid) :: ctx.completions;
              add_job ctx { pid; coordinator = owner; base; involved = claims }
          end)
        parked)
    ctx.operational

(* Category (b): pages of an *operational* owner that a crashed node had
   exclusively locked at crash time (§2.3.1 case b). *)
let gather_locked ctx =
  List.iter
    (fun n ->
      List.iter
        (fun (e : Dpt.entry) ->
          let pid = e.Dpt.pid in
          let owner_id = Page_id.owner pid in
          if List.exists (fun (d : Node_state.t) -> d.id = owner_id) ctx.deferred then
            (* the owner itself is down and not in this batch: its pages
               cannot be rebuilt without its base copy.  The claim (and
               the retained lock) survive untouched; the owner's own
               recovery will collect them as ordinary category-(a)
               work.  Access meanwhile blocks on [Node_down]. *)
            ()
          else if owner_id <> n.id && not (List.mem owner_id ctx.crashed_ids) then begin
            (* The base is the owner's most recent surviving copy; the
               crashed node repeats history from its own log on top of
               it whenever its CurrPSN is ahead (this includes the
               uncommitted updates of its losers, rolled back in the
               undo phase — ARIES repeating-history discipline). *)
            let owner = peer n owner_id in
            recovery_exchange n ~dst:owner_id (fun () ->
                send n ~dst:owner_id ~recovery:true ~bytes:Wire.control ();
                let base = Node.owner_latest_copy owner pid in
                send owner ~dst:n.id ~recovery:true ~bytes:(Wire.page (Env.config ctx.env)) ();
                bump_transfers n;
                if e.Dpt.curr_psn > Page.psn base then
                  (* Other crashed nodes may also have claims on this page. *)
                  add_job ctx
                    { pid; coordinator = n; base; involved = claims_above ~base ctx.crashed pid })
          end)
        (Dpt.entries n.dpt))
    ctx.crashed

let gather ctx =
  gather_owned ctx;
  gather_parked ctx;
  gather_locked ctx;
  ctx.jobs <- List.rev ctx.jobs

(* Glue after gather — §2.3.3: the crashed node acquires exclusive locks
   for the pages in its DPT that have no lock entry, before processing
   resumes.  Untimed: its lock events fall outside the timed gather phase. *)
let lock_jobs ctx =
  List.iter
    (fun { pid; coordinator = n; _ } ->
      let owner = peer n (Page_id.owner pid) in
      if List.is_empty (Global_locks.holders owner.glocks ~pid) then grant_x n ~owner pid)
    ctx.jobs

(* ------------------------------------------------------------------ *)
(* Steps: psn_lists + redo — coordinated redo (§2.3.4)                 *)
(* ------------------------------------------------------------------ *)

(* Build each involved node's NodePSNLists with a single scan of its
   own log (§2.3.4), batched over all pages that node participates in. *)
let build_psn_lists jobs =
  (* per involved node: its pages and the lowest RedoLSN among them *)
  let per_node : (int, Node_state.t * Page_id.Set.t * Lsn.t) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun job ->
      List.iter
        (fun { claimant = m; entry } ->
          let redo_lsn = entry.Dpt.redo_lsn in
          Hashtbl.replace per_node m.id
            (match Hashtbl.find_opt per_node m.id with
            | None -> (m, Page_id.Set.singleton job.pid, redo_lsn)
            | Some (_, pages, start) ->
              ( m,
                Page_id.Set.add job.pid pages,
                if Lsn.is_nil start then redo_lsn else Lsn.min start redo_lsn )))
        job.involved)
    jobs;
  let lists = Hashtbl.create 8 in
  Hashtbl.iter
    (fun node_id (m, pages, start) ->
      Hashtbl.replace lists node_id (Node_psn_list.build m.log ~node:node_id ~pages ~start))
    per_node;
  fun node_id pid ->
    match Option.bind (Hashtbl.find_opt lists node_id) (Page_id.Map.find_opt pid) with
    | Some listing -> listing
    | None -> { Node_psn_list.runs = []; records = [] }

(* One redo round at node [m]: apply [m]'s records for [job.pid] with
   PSNs in [run.psn, bound), reading exactly the locations remembered by
   the NodePSNList scan (§2.3.4: "the location of this log record is
   remembered and it will be used during the recovery"). *)
let redo_round ctx m job page (run : Node_psn_list.run) ~bound ~records =
  List.iter
    (fun (lsn, psn_before) ->
      let in_round =
        psn_before >= run.Node_psn_list.psn
        && match bound with Some b -> psn_before < b | None -> true
      in
      if in_round then begin
        let op = Log_manager.read_op m.log lsn ~pid:job.pid ~psn_before in
        m.metrics.Metrics.recovery_log_records_scanned <-
          m.metrics.recovery_log_records_scanned + 1;
        apply_record ctx m page ~psn_before ~op
      end)
    records

(* The involved nodes' lists travel to the coordinator, which then ships
   the page from node to node in PSN order, each applying its own
   records.  No log is ever merged. *)
let replay_coordinated ctx psn_lists job page =
  let coordinator = job.coordinator in
  let runs_of c = (psn_lists c.claimant.id job.pid).Node_psn_list.runs in
  let runs = Node_psn_list.merge (List.map runs_of job.involved) in
  List.iter
    (fun c ->
      recovery_exchange c.claimant ~dst:coordinator.id (fun () ->
          send c.claimant ~dst:coordinator.id ~recovery:true
            ~bytes:(Wire.listing ~entries:(List.length (runs_of c)))
            ()))
    job.involved;
  let page_bytes = Wire.page (Env.config ctx.env) in
  let rec rounds = function
    | [] -> ()
    | (run : Node_psn_list.run) :: rest ->
      let bound = match rest with [] -> None | next :: _ -> Some next.Node_psn_list.psn in
      let m = peer coordinator run.node in
      recovery_exchange coordinator ~dst:m.id (fun () ->
          send coordinator ~dst:m.id ~recovery:true ~bytes:page_bytes ();
          if m.id <> coordinator.id then bump_transfers coordinator;
          let records = (psn_lists m.id job.pid).Node_psn_list.records in
          redo_round ctx m job page run ~bound ~records;
          send m ~dst:coordinator.id ~recovery:true ~bytes:page_bytes ());
      rounds rest
  in
  rounds runs

let psn_lists ctx = ctx.replay <- replay_coordinated ctx (build_psn_lists ctx.jobs)

(* ------------------------------------------------------------------ *)
(* Steps: merge_pull + redo — merged-log redo (baseline, §3.2)         *)
(* ------------------------------------------------------------------ *)

(* Every participating node scans its whole retained log and ships
   every update record to the coordinator, which merges them per page
   by PSN.  The scans cannot start at the checkpoints: redo points
   routinely precede them.  This is exactly what the paper's design
   avoids — reading and moving entire logs instead of NodePSNLists and
   page-sized rounds.  Unlike the coordinated exchanges this pull is
   not wrapped in [recovery_exchange]: it never probes the link. *)
let pull_merged_records coordinator sources =
  let per_page : (int * Record.update_op) list Page_id.Tbl.t = Page_id.Tbl.create 32 in
  List.iter
    (fun m ->
      if m.id <> coordinator.id then
        send coordinator ~dst:m.id ~recovery:true ~bytes:Wire.control ();
      Log_manager.fold m.log ~from:Lsn.nil ~init:() (fun () _lsn record ->
          match record.Record.body with
          | Update { pid; psn_before; op } | Clr { pid; psn_before; op; _ } ->
            if m.id <> coordinator.id then begin
              let encoded = Record.size record in
              send m ~dst:coordinator.id ~recovery:true ~bytes:(Wire.log_record encoded) ();
              m.metrics.Metrics.log_records_shipped <- m.metrics.log_records_shipped + 1
            end;
            push per_page pid (psn_before, op)
          | Commit | Abort | Savepoint _ | Checkpoint_begin _ | Checkpoint_end -> ()))
    sources;
  per_page

(* The coordinator replays its merged records for the page in PSN order. *)
let replay_merged ctx pulls job page =
  let records = List.assoc job.coordinator.id pulls in
  List.iter
    (fun (psn_before, op) -> apply_record ctx job.coordinator page ~psn_before ~op)
    (List.sort
       (fun (a, _) (b, _) -> Int.compare a b)
       (Option.value (Page_id.Tbl.find_opt records job.pid) ~default:[]))

(* One merged pull per coordinator, then local per-page replay. *)
let merge_pull ctx =
  let coordinators =
    List.sort_uniq
      (fun a b -> Int.compare a.id b.id)
      (List.map (fun job -> job.coordinator) ctx.jobs)
  in
  let pull c = (c.id, pull_merged_records c (ctx.crashed @ ctx.operational)) in
  ctx.replay <- replay_merged ctx (List.map pull coordinators)

(* ------------------------------------------------------------------ *)
(* Step: redo — the per-page tail shared by both strategies            *)
(* ------------------------------------------------------------------ *)

(* Settle the claims of a successfully recovered page: hand the copy to
   the coordinator's cache; every other involved node's updates now live
   in that copy, so they are treated as having replaced the page (their
   flush ack will retire the entry). *)
let settle_claims job page =
  let coordinator = job.coordinator and owner = job_owner job in
  let at_owner = coordinator.id = owner.id in
  let others =
    List.filter_map
      (fun c -> if c.claimant.id = coordinator.id then None else Some c.claimant)
      job.involved
  in
  Node.install_recovered_page coordinator page
    ~waiters:(if at_owner then List.map (fun m -> m.id) others else []);
  List.iter
    (fun m ->
      Dpt.on_replaced m.dpt job.pid ~end_of_log:(Log_manager.end_lsn m.log);
      (* the owner survives; register the waiter there *)
      if not at_owner then Node.register_flush_waiter owner job.pid ~waiter:m.id)
    others;
  if not at_owner then Node.register_flush_waiter owner job.pid ~waiter:coordinator.id

(* A redo gap at [gap_node] while recovering [job]: park the page on a
   down peer when one exists to attribute the missing PSNs to, otherwise
   the participant set was wrong and recovery must not limp on. *)
let gap_or_defer job ~deferred ~gap_node ~psn ~page_psn =
  let owner = job_owner job in
  match pick_blocker ~deferred ~owner ~pid:job.pid with
  | Some blocker -> park_deferred ~owner ~pid:job.pid ~blocker
  | None ->
    invalid_arg
      (Format.asprintf "recovery: node %d met record psn=%d ahead of page %a psn=%d" gap_node
         psn Page_id.pp job.pid page_psn)

let redo ctx =
  List.iter
    (fun job ->
      let page = Page.copy job.base in
      match ctx.replay job page with
      | () ->
        bump_redone job.coordinator;
        settle_claims job page
      | exception Redo_gap { node = gap_node; psn; page_psn } ->
        (* the partially rebuilt copy is discarded; no claim settles, so a
           later completion run re-derives the full participant set *)
        gap_or_defer job ~deferred:ctx.deferred ~gap_node ~psn ~page_psn)
    ctx.jobs

(* Glue after redo: the recovered pages open up, completion jobs that
   made it through redo retire their parked entries (a job that hit a
   fresh gap already re-parked the page with a new — still-down,
   not-in-this-batch — blocker and must stay), and normal processing can
   resume. *)
let end_redo ctx =
  List.iter
    (fun job ->
      let owner = job_owner job in
      owner.recovering_pages <- Page_id.Set.remove job.pid owner.recovering_pages)
    ctx.jobs;
  List.iter
    (fun (owner, pid) ->
      match Page_id.Tbl.find_opt owner.deferred_pages pid with
      | Some b when List.mem b ctx.crashed_ids -> unpark_deferred ~owner ~pid
      | Some _ | None -> ())
    ctx.completions;
  List.iter (fun n -> Node.maybe_crashpoint n Fault_plan.Recovery_pre_undo) ctx.crashed;
  List.iter (fun n -> n.up <- true) ctx.crashed

(* ------------------------------------------------------------------ *)
(* Step: undo of loser transactions                                   *)
(* ------------------------------------------------------------------ *)

(* Roll one (registered) loser back to completion, starting from its
   current [last_lsn] so a parked rollback resumes at its last CLR.  A
   rollback that blocks on a DOWN peer — the page it must compensate is
   deferred, or its owner is dead — is parked: the Txn stays registered
   (its undo chain keeps pinning the log, and a further crash's analysis
   re-finds it) and resumes when the blocker recovers.  Any other block
   propagates: it is either this node's own injected crash (the whole
   run restarts) or a transient fault a later attempt retries through. *)
let rollback_loser n txn =
  match
    let _last =
      Undo.rollback (Node.undo_ops n txn) ~txn:txn.Txn.id ~from:txn.Txn.last_lsn ~upto:Lsn.nil
    in
    let lsn =
      Node.append_record n { Record.txn = txn.Txn.id; prev = txn.Txn.last_lsn; body = Abort }
    in
    Txn.record_logged txn lsn;
    txn.Txn.state <- Txn.Aborted;
    Txn_table.remove n.txns txn.Txn.id;
    n.metrics.Metrics.txn_aborted <- n.metrics.txn_aborted + 1
  with
  | () -> ()
  | exception (Block.Would_block reason as e) -> (
    match reason with
    | (Block.Page_unavailable { blocker = b; _ } | Block.Node_down { node = b }) when b <> n.id ->
      n.deferred_losers <- (txn.Txn.id, b) :: n.deferred_losers;
      Env.emit n.env ~node:n.id Repro_obs.Event.Recovery_deferred
        [
          ("action", Repro_obs.Event.Str "loser-parked");
          ("txn", Repro_obs.Event.Int txn.Txn.id);
          ("blocker", Repro_obs.Event.Int b);
        ]
    | _ -> raise e)

let undo ctx =
  List.iter
    (fun (n, losers) ->
      List.iter
        (fun (l : Record.active_txn) ->
          Node.maybe_crashpoint n Fault_plan.Recovery_undo;
          let txn = Txn.make ~id:l.txn ~node:n.id in
          txn.Txn.last_lsn <- l.last_lsn;
          Txn_table.register n.txns txn;
          rollback_loser n txn)
        losers)
    ctx.losers_by_node;
  (* survivors whose loser rollback parked on one of the nodes we just
     recovered can finish it now *)
  List.iter
    (fun n ->
      let resumable, still_parked =
        List.partition (fun (_, b) -> List.mem b ctx.crashed_ids) n.deferred_losers
      in
      n.deferred_losers <- still_parked;
      List.iter
        (fun (txn_id, _) ->
          match Txn_table.find n.txns txn_id with
          | None -> () (* this node crashed since; its own analysis re-found the loser *)
          | Some txn -> rollback_loser n txn)
        resumable)
    ctx.operational

(* ------------------------------------------------------------------ *)
(* Step: end-of-restart checkpoint (live-fault mode only)              *)
(* ------------------------------------------------------------------ *)

(* Force the undo phase's CLRs and abort records — closing the window
   where a second crash tears a CLR but keeps the earlier record it
   compensates — and bound the next analysis so re-recovery does not
   rescan the pre-crash log.  Only in live mode, because it perturbs the
   recovery-time measurements of the historical experiments. *)
let checkpoint ctx =
  List.iter
    (fun n ->
      Node.maybe_crashpoint n Fault_plan.Recovery_checkpoint;
      Log_manager.force_all n.log;
      Node.checkpoint n)
    ctx.crashed

(* ------------------------------------------------------------------ *)
(* The step runner and driver                                          *)
(* ------------------------------------------------------------------ *)

(* A phase is timed: it records a [recovery.<name>] histogram sample,
   a Recovery_phase event and a summary entry (E4/E5/E8 report where
   recovery time goes, not just totals).  Glue between phases is not. *)
type step = Phase of string * (ctx -> unit) | Glue of (ctx -> unit)

let steps ctx strategy =
  [
    Phase ("analysis", analysis);
    Phase ("lock_reconstruction", lock_reconstruction);
    Phase ("gather", gather);
    Glue lock_jobs;
    (match strategy with
    | Psn_coordinated -> Phase ("psn_lists", psn_lists)
    | Merged_logs -> Phase ("merge_pull", merge_pull));
    Phase ("redo", redo);
    Glue end_redo;
    Phase ("undo", undo);
  ]
  @ if ctx.live then [ Phase ("checkpoint", checkpoint) ] else []

let run_step ctx = function
  | Glue f ->
    f ctx;
    None
  | Phase (name, f) ->
    let env = ctx.env in
    let t0 = Env.now env in
    f ctx;
    let t1 = Env.now env in
    let dt = t1 -. t0 in
    Env.observe env ~name:("recovery." ^ name) ~node:(-1) dt;
    if Env.tracing env then
      Env.emit env ~node:(-1) Repro_obs.Event.Recovery_phase
        [ ("phase", Repro_obs.Event.Str name); ("dur", Repro_obs.Event.Float dt) ];
    Some (name, dt)

(* A crash point firing mid-recovery surfaces as [Node_down]: the attempt
   is abandoned wholesale (no partial claim ever settled — see [redo])
   and the driver re-enters with the newly-crashed node added to the
   batch.  Re-entry resets volatile state and reruns every step from
   durable state, so it converges to the same durable outcome.

   The batch's nodes go up before the undo step (undo fetches pages
   across nodes), so an abort landing between that publication and the
   end of the attempt leaves them up but only PARTIALLY recovered —
   losers not yet rolled back would linger as live updates at an
   "operational" node, and the re-entered recovery (which covers only
   the currently-down set) would never touch them.  Withdraw the
   premature publication: their logs are intact (this is not a crash —
   no tear, no lost durable state), and the re-entered attempt takes
   them through the full batch again, repeating history idempotently. *)
let abandon ctx (reason : Block.reason) =
  List.iter (fun n -> if n.up then n.up <- false) ctx.crashed;
  match reason with
  | Block.Node_down { node } ->
    (match List.find_opt (fun n -> n.id = node) (ctx.crashed @ ctx.operational) with
    | Some n -> n.metrics.Metrics.recovery_restarts <- n.metrics.recovery_restarts + 1
    | None -> ());
    Env.emit ctx.env ~node Repro_obs.Event.Recovery_restart
      [ ("aborted", Repro_obs.Event.Bool true) ]
  | _ -> ()

type summary = { phases : (string * float) list; total_seconds : float }

let summary_to_json s =
  let module Json = Repro_obs.Json in
  Json.Obj
    [
      ("phases", Json.Obj (List.map (fun (name, dt) -> (name, Json.Float dt)) s.phases));
      ("total_seconds", Json.Float s.total_seconds);
    ]

let run ?(strategy = Psn_coordinated) ?(deferred = []) ~crashed ~operational () =
  List.iter
    (fun n ->
      match n.scheme with
      | Node_state.Local_logging -> ()
      | Server_logging _ | Pca_double_logging | Global_log _ ->
        invalid_arg
          "Recovery.run: crash recovery is implemented for the paper's local-logging scheme; \
           the baselines are normal-processing comparators")
    (crashed @ operational @ deferred);
  List.iter
    (fun n -> if n.up then invalid_arg "Recovery.run: node in crashed list is up")
    crashed;
  List.iter
    (fun n -> if not n.up then invalid_arg "Recovery.run: node in operational list is down")
    operational;
  List.iter
    (fun n -> if n.up then invalid_arg "Recovery.run: node in deferred list is up")
    deferred;
  (* Restartability: a previous attempt may have died partway through —
     discard whatever partial volatile state it left in the still-down
     nodes (recovered pages, reconstructed locks, re-registered losers)
     and any stale in-progress marks on the survivors, then start over
     from durable state.  Everything the protocol relies on is
     re-derived: analysis re-reads the logs, claims were never settled
     for unfinished pages, and owner-side grants are idempotent. *)
  List.iter Node.reset_volatile crashed;
  List.iter (fun n -> n.recovering_pages <- Page_id.Set.empty) operational;
  match crashed @ operational with
  | [] -> { phases = []; total_seconds = 0. }
  | first :: _ ->
    let env = first.env in
    let inj = Env.faults env in
    (* Without recovery-class faults in the plan, the injector is
       disarmed for the whole of recovery, and its prior arming is
       restored after — the legacy model: the protocol runs
       over a reliable transport, and historical seeds stay
       bit-identical.  With them, the injector stays live and recovery
       itself is under fire: its named crash points abort the attempt
       (the driver re-enters), and [recovery_exchange] retries through
       drops and partitions.  Pre-existing partitions are healed either
       way — they were aimed at normal processing, and a partition that
       outlived the crash would starve the first attempt for no extra
       coverage. *)
    let live = match inj with Some i -> recovery_faults_on (Injector.plan i) | None -> false in
    let restore =
      match inj with
      | Some i ->
        let was_armed = Injector.armed i in
        if not live then Injector.set_armed i false;
        Injector.heal_partitions i;
        fun () -> Injector.set_armed i was_armed
      | None -> fun () -> ()
    in
    Fun.protect ~finally:restore @@ fun () ->
    let ctx =
      {
        env;
        crashed;
        operational;
        deferred;
        crashed_ids = List.map (fun n -> n.id) crashed;
        live;
        losers_by_node = [];
        jobs = [];
        job_pages = Page_id.Set.empty;
        completions = [];
        replay = (fun _ _ -> invalid_arg "Recovery.run: redo before psn_lists or merge_pull");
        redo_applied = 0;
      }
    in
    let recovery_from = Env.now env in
    if Env.tracing env then
      Env.emit env ~node:(-1) Repro_obs.Event.Recovery_begin
        [ ("crashed", Repro_obs.Event.Int (List.length crashed)) ];
    match List.filter_map (run_step ctx) (steps ctx strategy) with
    | exception (Block.Would_block reason as e) ->
      abandon ctx reason;
      raise e
    | phases ->
      let total_seconds = Env.now env -. recovery_from in
      (* per-node samples also land in the (-1) cluster aggregate *)
      if List.is_empty crashed then Env.observe env ~name:"recovery_duration" ~node:(-1) total_seconds
      else
        List.iter
          (fun n -> Env.observe env ~name:"recovery_duration" ~node:n.id total_seconds)
          crashed;
      if Env.tracing env then
        Env.emit env ~node:(-1) Repro_obs.Event.Recovery_end
          [ ("total", Repro_obs.Event.Float total_seconds) ];
      { phases; total_seconds }
