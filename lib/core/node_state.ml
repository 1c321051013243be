(* The state record of one node (Figure 1 of the paper).

   Fields are grouped by durability: the disk, the allocation map, the
   log device and the master record survive a crash; everything else is
   volatile and wiped by [Node.crash].  Protocol code lives in [Node]
   and [Recovery]; this module only constructs and wires the record
   (exposing the fields library-wide keeps each protocol phase in its
   own module without accessor boilerplate). *)

module Env = Repro_sim.Env
module Metrics = Repro_sim.Metrics
module Page_id = Repro_storage.Page_id
module Event = Repro_obs.Event
module Recorder = Repro_obs.Recorder

(* Which logging architecture the cluster runs.  [Local_logging] is the
   paper's contribution; the others are the §3 comparators, sharing the
   identical cache / lock / page-transfer substrate so that only the
   logging architecture differs in the measured counters.  Crash
   recovery is implemented for [Local_logging] only; the baselines are
   normal-processing comparators (E1-E3, E10). *)
type scheme =
  | Local_logging
      (* client-based logging: every node logs locally, commit = one
         local log force, zero messages *)
  | Server_logging of { server : int }
      (* ARIES/CSA-flavoured: clients ship all their log records to the
         server at commit; the server holds the only durable log *)
  | Pca_double_logging
      (* Rahm's primary-copy-authority: at commit every updated remote
         page travels to its PCA node together with its log records,
         which are appended to that node's log as well (double
         logging) *)
  | Global_log of { log_node : int }
      (* Rdb/VMS-flavoured: one shared log appended to over the
         network; pages are forced to disk before inter-node
         transfer *)

type t = {
  id : int;
  env : Env.t;
  metrics : Metrics.t;
  mutable dep_edges : int;
      (* commit dependencies recorded on this node (early lock
         release).  A lifetime count for reporting: a crash does not
         reset it. *)
  (* durable state *)
  disk : Repro_storage.Disk.t;
  alloc : Repro_storage.Alloc_map.t;
  log : Repro_wal.Log_manager.t;
  master : Repro_aries.Master.t;
  gc : Repro_wal.Group_commit.t;
      (* group-commit batch over [log].  The pending batch itself is
         volatile ([Node.crash] drops it); listed here with the durable
         fields only because it wraps the log manager. *)
  (* volatile state *)
  mutable up : bool;
  mutable pool : Repro_buffer.Buffer_pool.t;
  locks : Repro_lock.Local_locks.t;  (* client role: cached + txn-level locks *)
  glocks : Repro_lock.Global_locks.t;  (* owner role: node-level locks on owned pages *)
  dpt : Repro_buffer.Dpt.t;
  txns : Repro_tx.Txn_table.t;
  flush_waiters : int list Page_id.Tbl.t;
      (* owner role, §2.5: nodes to notify when an owned page is forced *)
  reservations : (int * int) Page_id.Tbl.t;
      (* owner role, fairness: (txn, node) of the oldest blocked
         requester of a contested page; younger requesters queue behind
         it so the oldest transaction cannot be starved by a stream of
         fresh cache-hit acquisitions *)
  mutable recovering_pages : Page_id.Set.t;
      (* owned pages whose recovery is in progress; requests are stopped *)
  (* wiring *)
  mutable resolve : int -> t;
  pool_capacity : int;
  scheme : scheme;
  retain_cached_locks : bool;
      (* inter-transaction caching of locks and pages (§2.1).  Disabled
         only by the E9 ablation, which releases node-level locks back
         to their owners at end of transaction. *)
}

(* The [action] attr the lock-table and buffer-pool events carry.  No
   catch-all: only these six kinds come from the tracer hooks. *)
let tracer_action : Event.kind -> string = function
  | Event.Lock_grant -> "grant"
  | Event.Lock_demote -> "demote"
  | Event.Lock_release -> "release"
  | Event.Lock_early_release -> "early_release"
  | Event.Cache_install -> "install"
  | Event.Cache_evict -> "evict"
  | ( Event.Msg_send | Event.Msg_recv | Event.Log_append | Event.Log_force | Event.Page_read
    | Event.Page_write | Event.Page_ship | Event.Lock_request | Event.Lock_callback
    | Event.Lock_acquired | Event.Ckpt_begin | Event.Ckpt_end | Event.Txn_begin
    | Event.Txn_commit | Event.Txn_abort | Event.Commit_submit | Event.Commit_batch
    | Event.Commit_dep | Event.Crash | Event.Recovery_begin | Event.Recovery_end
    | Event.Recovery_phase | Event.Recovery_restart | Event.Recovery_retry | Event.Fault_drop
    | Event.Fault_dup | Event.Fault_delay | Event.Fault_partition | Event.Fault_torn
    | Event.Fault_crash ) as kind
    ->
    invalid_arg ("Node_state: no tracer action for " ^ Event.kind_name kind)

(* Route the substrate's observability hooks (lock tables, buffer pool)
   into the typed recorder.  The hooks themselves are unconditional
   function calls; the closures bail on one branch when tracing is
   off. *)
let wire_tracers node =
  let obs = Env.obs node.env in
  let emit_page kind pid =
    if Recorder.enabled obs then
      Recorder.emit obs ~time:(Env.now node.env) ~node:node.id kind
        [
          ("action", Event.Str (tracer_action kind));
          ("page", Event.Str (Page_id.to_string pid));
        ]
  in
  Repro_lock.Local_locks.set_tracer node.locks emit_page;
  Repro_lock.Global_locks.set_tracer node.glocks (fun kind holder pid ->
      if Recorder.enabled obs then
        Recorder.emit obs ~time:(Env.now node.env) ~node:node.id kind
          [
            ("action", Event.Str (tracer_action kind));
            ("holder", Event.Int holder);
            ("page", Event.Str (Page_id.to_string pid));
          ]);
  Repro_buffer.Buffer_pool.set_tracer node.pool emit_page

let create env ~id ~pool_capacity ~log_capacity ~scheme ~retain_cached_locks =
  let metrics = Metrics.create ~node:id () in
  let log = Repro_wal.Log_manager.create env metrics ?capacity:log_capacity () in
  let rec node =
    {
      id;
      env;
      metrics;
      dep_edges = 0;
      disk = Repro_storage.Disk.create env metrics;
      alloc = Repro_storage.Alloc_map.create ~owner:id;
      log;
      master = Repro_aries.Master.create ();
      gc = Repro_wal.Group_commit.create env ~node:id log;
      up = true;
      pool = Repro_buffer.Buffer_pool.create ~capacity:pool_capacity ();
      locks = Repro_lock.Local_locks.create ();
      glocks = Repro_lock.Global_locks.create ~owner:id;
      dpt = Repro_buffer.Dpt.create ();
      txns = Repro_tx.Txn_table.create ();
      flush_waiters = Page_id.Tbl.create 16;
      reservations = Page_id.Tbl.create 16;
      recovering_pages = Page_id.Set.empty;
      resolve = (fun _ -> node);
      pool_capacity;
      scheme;
      retain_cached_locks;
    }
  in
  wire_tracers node;
  node

let peer t id = t.resolve id

(* Charge a message from [t] to [dst]; local "messages" (owner = self)
   cost nothing, matching the paper's message counting.  This is the
   single network choke point: with a fault injector installed, lost
   attempts are retransmitted after an RTO (each paying bytes + timeout)
   and a random queueing delay models bounded reordering — the message
   always eventually arrives, so exchanges never fail halfway. *)
let send t ~dst ?(commit_path = false) ?(recovery = false) ~bytes () =
  if dst <> t.id then begin
    (match Env.faults t.env with
    | Some inj ->
      let v = Repro_fault.Injector.on_message inj ~src:t.id ~dst in
      for _ = 1 to v.Repro_fault.Injector.drops do
        Env.charge_message t.env t.metrics ~commit_path ~recovery ~bytes ();
        Env.charge_cpu t.env (Repro_fault.Injector.rto inj);
        t.metrics.Metrics.net_msgs_dropped <- t.metrics.net_msgs_dropped + 1;
        Env.emit t.env ~node:t.id Event.Fault_drop [ ("dst", Event.Int dst) ]
      done;
      if v.Repro_fault.Injector.delay > 0. then begin
        Env.charge_cpu t.env v.Repro_fault.Injector.delay;
        t.metrics.Metrics.net_msgs_delayed <- t.metrics.net_msgs_delayed + 1;
        Env.emit t.env ~node:t.id Event.Fault_delay [ ("dst", Event.Int dst) ]
      end
    | None -> ());
    Env.charge_message t.env t.metrics ~commit_path ~recovery ~bytes ();
    if Env.tracing t.env then begin
      let attrs =
        [
          ("dst", Event.Int dst);
          ("bytes", Event.Int bytes);
          ("dur", Event.Float (Env.message_cost t.env ~bytes));
        ]
        @ (if commit_path then [ ("commit", Event.Bool true) ] else [])
        @ if recovery then [ ("recovery", Event.Bool true) ] else []
      in
      Env.emit t.env ~node:t.id Event.Msg_send attrs;
      Env.emit t.env ~node:dst Event.Msg_recv [ ("src", Event.Int t.id); ("bytes", Event.Int bytes) ]
    end
  end

(* Like [send], but additionally asks the injector whether the network
   duplicates the message.  Returns [true] on duplication; callers use
   it ONLY where the receive path is idempotent, re-running the delivery
   to prove it. *)
let send_dup t ~dst ?(commit_path = false) ?(recovery = false) ~bytes () =
  send t ~dst ~commit_path ~recovery ~bytes ();
  if dst = t.id then false
  else
    match Env.faults t.env with
    | Some inj when Repro_fault.Injector.duplicate inj ->
      Env.charge_message t.env t.metrics ~commit_path ~recovery ~bytes ();
      t.metrics.Metrics.net_msgs_duplicated <- t.metrics.net_msgs_duplicated + 1;
      Env.emit t.env ~node:t.id Event.Fault_dup [ ("dst", Event.Int dst) ];
      true
    | Some _ | None -> false

(* Probe the link to [dst] before starting a multi-step exchange.  A
   [false] answer is an injected temporary partition: the caller must
   back off before mutating state on either side.  Each failed probe
   costs one RTO and drains the partition's bounded budget, so blocked
   transactions retry their way through it. *)
let link_up t ~dst =
  if dst = t.id then true
  else
    match Env.faults t.env with
    | None -> true
    | Some inj ->
      if Repro_fault.Injector.link_up inj ~a:t.id ~b:dst then true
      else begin
        Env.charge_cpu t.env (Repro_fault.Injector.rto inj);
        t.metrics.Metrics.net_link_blocks <- t.metrics.net_link_blocks + 1;
        Env.emit t.env ~node:t.id Event.Fault_partition [ ("dst", Event.Int dst) ];
        false
      end

let ensure_link t ~dst =
  if not (link_up t ~dst) then Block.block (Block.Net_unreachable { src = t.id; dst })
