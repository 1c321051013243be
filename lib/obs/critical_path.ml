(* Critical-path commit-latency attribution.

   Folds a recorded event stream into one timeline per committed
   transaction and decomposes its end-to-end latency (txn.begin →
   txn.commit) into the protocol phases the paper argues about:

     lock_wait      waiting for locks net of the work done while
                    waiting (messages, callbacks, page transfers are
                    attributed to their own components);
     batch_wait     group commit: submit → start of the covering force;
     log_force      synchronous log-device forces, including the shared
                    batch force that made the commit durable;
     network        message transmission charged to this transaction;
     owner_service  page-device reads/writes performed on its behalf
                    (cache-miss reads, owner-side installs and flushes);
     dep_wait       always 0: a commit dependency joins two
                    transactions of one node, whose log orders the
                    antecedent's commit first, so no verdict waits on
                    it (kept as a reporting column);
     other          the un-attributed remainder (CPU charges, lock-op
                    costs) — never negative.

   Components sum to the measured end-to-end latency by construction,
   which is exactly what makes the decomposition trustworthy: nothing
   is double-counted and nothing is dropped.

   Causality comes from the [txn] context stamped on every event by
   [Env.with_txn] — including events another node emits while serving
   this transaction.  The module is deliberately offline: it consumes
   an [Event.t list] and touches nothing in the simulator. *)

(* Fragile matches (warning 4) are errors: see Event. *)
[@@@warning "+4"]

(* The components an event's own duration feeds; lock_wait and
   batch_wait come only from markers. *)
type component = Log_force_time | Network | Owner_service

type marker = M_begin | M_lock_request | M_lock_acquired | M_submit | M_commit

type event_class =
  | Charge of component  (** the event's [dur] attr feeds this component *)
  | Force
      (** a log force: its [dur] feeds log_force, and it is its node's
          latest force, the one that covers a batched commit *)
  | Marker of marker  (** structural: drives the fold's state machine *)
  | Unattributed  (** contributes to [other] implicitly *)

(* One case per Event.kind, no wildcard: adding an event kind must not
   silently fall through attribution (warning 4 is an error in this
   file). *)
let classify_kind : Event.kind -> event_class = function
  | Event.Msg_send -> Charge Network
  | Event.Msg_recv -> Unattributed (* the send already carries the charge *)
  | Event.Log_append -> Unattributed (* CPU cost; lands in [other] *)
  | Event.Log_force -> Force
  | Event.Page_read -> Charge Owner_service
  | Event.Page_write -> Charge Owner_service
  | Event.Page_ship -> Unattributed (* its message is a separate Msg_send *)
  | Event.Cache_install -> Unattributed
  | Event.Cache_evict -> Unattributed
  | Event.Lock_request -> Marker M_lock_request
  | Event.Lock_grant -> Unattributed
  | Event.Lock_callback -> Unattributed
  | Event.Lock_demote -> Unattributed
  | Event.Lock_release -> Unattributed
  | Event.Lock_acquired -> Marker M_lock_acquired
  | Event.Ckpt_begin -> Unattributed
  | Event.Ckpt_end -> Unattributed
  | Event.Txn_begin -> Marker M_begin
  | Event.Txn_commit -> Marker M_commit
  | Event.Txn_abort -> Unattributed
  | Event.Commit_submit -> Marker M_submit
  | Event.Commit_batch -> Unattributed
  | Event.Commit_dep -> Unattributed (* edge registration costs nothing *)
  | Event.Lock_early_release -> Unattributed
  | Event.Crash -> Unattributed
  | Event.Recovery_begin -> Unattributed
  | Event.Recovery_end -> Unattributed
  | Event.Recovery_phase -> Unattributed
  | Event.Recovery_restart -> Unattributed
  | Event.Recovery_retry -> Unattributed
  | Event.Fault_drop -> Unattributed
  | Event.Fault_dup -> Unattributed
  | Event.Fault_delay -> Unattributed
  | Event.Fault_partition -> Unattributed
  | Event.Fault_torn -> Unattributed
  | Event.Fault_crash -> Unattributed

type components = {
  mutable lock_wait : float;
  mutable batch_wait : float;
  mutable log_force : float;
  mutable network : float;
  mutable owner_service : float;
  dep_wait : float;
  mutable other : float;
}

type timeline = {
  txn : int;
  node : int;
  began : float;
  committed : float;
  total : float;
  parts : components;
}

type t = { txns : timeline list }

let component_names =
  [ "lock_wait"; "batch_wait"; "log_force"; "network"; "owner_service"; "dep_wait"; "other" ]

let component_value parts = function
  | "lock_wait" -> parts.lock_wait
  | "batch_wait" -> parts.batch_wait
  | "log_force" -> parts.log_force
  | "network" -> parts.network
  | "owner_service" -> parts.owner_service
  | "dep_wait" -> parts.dep_wait
  | "other" -> parts.other
  | name -> invalid_arg ("Critical_path.component_value: unknown component " ^ name)

let new_components () =
  {
    lock_wait = 0.;
    batch_wait = 0.;
    log_force = 0.;
    network = 0.;
    owner_service = 0.;
    dep_wait = 0.;
    other = 0.;
  }

(* The transaction an event belongs to: the marker's own [txn] attr
   when present (txn.begin is emitted before the context opens), else
   the stamped causal context. *)
let event_txn (e : Event.t) =
  match Event.attr_int e "txn" with Some id -> id | None -> e.Event.txn

let analyze events =
  let began : (int, float * int) Hashtbl.t = Hashtbl.create 64 in
  let parts : (int, components) Hashtbl.t = Hashtbl.create 64 in
  let window : (int, float ref) Hashtbl.t = Hashtbl.create 16 in
  let submit : (int, float) Hashtbl.t = Hashtbl.create 64 in
  (* last log.force per node: (end time, duration, causing txn) *)
  let last_force : (int, float * float * int) Hashtbl.t = Hashtbl.create 8 in
  let timelines = ref [] in
  let parts_of txn =
    match Hashtbl.find_opt parts txn with
    | Some p -> p
    | None ->
      let p = new_components () in
      Hashtbl.replace parts txn p;
      p
  in
  let add_charge txn comp dur =
    let p = parts_of txn in
    (match comp with
    | Log_force_time -> p.log_force <- p.log_force +. dur
    | Network -> p.network <- p.network +. dur
    | Owner_service -> p.owner_service <- p.owner_service +. dur);
    (* Work done while waiting for a lock is already attributed above;
       remember it so the wait component only gets the remainder. *)
    match Hashtbl.find_opt window txn with
    | Some acc -> acc := !acc +. dur
    | None -> ()
  in
  List.iter
    (fun (e : Event.t) ->
      let dur = Option.value (Event.attr_float e "dur") ~default:0. in
      match classify_kind e.Event.kind with
      | Charge comp -> if e.Event.txn >= 0 then add_charge e.Event.txn comp dur
      | Force ->
        if e.Event.txn >= 0 then add_charge e.Event.txn Log_force_time dur;
        (* Covering-force bookkeeping is independent of attribution: the
           force that makes a batch durable usually runs under some
           OTHER transaction's context (or none, on a timer flush). *)
        Hashtbl.replace last_force e.Event.node (e.Event.time, dur, e.Event.txn)
      | Marker m -> (
        let txn = event_txn e in
        match m with
        | M_begin -> if txn >= 0 then Hashtbl.replace began txn (e.Event.time, e.Event.node)
        | M_lock_request ->
          if txn >= 0 && not (Hashtbl.mem window txn) then Hashtbl.replace window txn (ref 0.)
        | M_lock_acquired ->
          if txn >= 0 then begin
            let covered =
              match Hashtbl.find_opt window txn with Some acc -> !acc | None -> 0.
            in
            Hashtbl.remove window txn;
            let wait = Option.value (Event.attr_float e "wait") ~default:0. in
            let p = parts_of txn in
            p.lock_wait <- p.lock_wait +. Float.max 0. (wait -. covered)
          end
        | M_submit ->
          (* latest submit wins: a Would_block retry re-submits legally *)
          if txn >= 0 then Hashtbl.replace submit txn e.Event.time
        | M_commit ->
          if txn >= 0 then begin
            (match Hashtbl.find_opt began txn with
            | None -> () (* no txn.begin in the stream: not attributable *)
            | Some (t0, node) ->
              let p = parts_of txn in
              (* The covering force: the last log.force on this node
                 before the commit completed.  A batched commit waited
                 from submit until that force started, and — when the
                 force ran under another transaction's context — its
                 duration is this commit's force time too. *)
              (match Hashtbl.find_opt last_force node with
              | Some (f_end, f_dur, f_txn) ->
                let f_start = f_end -. f_dur in
                (match Hashtbl.find_opt submit txn with
                | Some t_submit -> p.batch_wait <- Float.max 0. (f_start -. t_submit)
                | None -> ());
                if f_txn <> txn then p.log_force <- p.log_force +. f_dur
              | None -> ());
              let total = e.Event.time -. t0 in
              let attributed =
                p.lock_wait +. p.batch_wait +. p.log_force +. p.network +. p.owner_service
              in
              p.other <- Float.max 0. (total -. attributed);
              timelines :=
                { txn; node; began = t0; committed = e.Event.time; total; parts = p }
                :: !timelines);
            Hashtbl.remove began txn;
            Hashtbl.remove parts txn;
            Hashtbl.remove submit txn
          end)
      | Unattributed -> ())
    events;
  { txns = List.rev !timelines }

let component_hists t =
  let hists = List.map (fun name -> (name, Log_hist.create ())) component_names in
  let total = Log_hist.create () in
  List.iter
    (fun tl ->
      Log_hist.record total tl.total;
      List.iter (fun (name, h) -> Log_hist.record h (component_value tl.parts name)) hists)
    t.txns;
  hists @ [ ("total", total) ]

(* Folded-stack output (one line per sample, semicolon-separated frames,
   integer weight) — the input format of every flamegraph renderer.
   Weights are microseconds of simulated time. *)
let folded_stacks t =
  List.concat_map
    (fun tl ->
      List.filter_map
        (fun name ->
          let v = component_value tl.parts name in
          let usec = int_of_float ((v *. 1e6) +. 0.5) in
          if usec > 0 then Some (Printf.sprintf "node%d;txn.%d;%s %d" tl.node tl.txn name usec)
          else None)
        component_names)
    t.txns
