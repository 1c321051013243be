(* Offline protocol auditor: replays a recorded event stream and checks
   the invariants behind the bug classes PRs 1-5 fixed.  A violation
   here means the *protocol* misbehaved, not just that a counter looks
   odd — each check replays enough durable/volatile state from the
   events alone to re-derive what the rule demands.

   The auditor assumes a [Local_logging] trace (the paper's scheme):
   baseline schemes force on other nodes' logs and would trip the WAL
   and batch-closure replays.

   Invariants:

   1. force-before-ship — WAL: a page copy never leaves a node before
      the log records covering its updates are durable there.  Replayed
      from [log.force]'s [durable] attr vs [page.ship]'s [lsn] attr.

   2. batch-loss-closure — group commit: a transaction only reports
      committed after a force covered its submitted commit record, and
      never after the crash of a still-pending batch (whole-batch
      loss).  Replayed from [commit.submit] / [log.force] / [crash].

   3. psn-monotonic — page lineage: shipped PSNs never go backwards for
      a page; a regression means two divergent histories under the same
      PSNs (the double-lineage bug class).

   4. release-after-terminal — strict 2PL: once a transaction reached
      its terminal lock release (or its commit/abort event), no further
      lock activity or log append may carry its causal context.

   5. release-after-submit — early lock release (controlled lock
      violation) weakens 4 for committing transactions: a
      [lock.early_release] is legal only between the commit-record
      submit and the covering force, and the releaser may do no further
      lock or log work afterwards.

   6. closure-loss — PR 3's whole-batch loss generalised: a transaction
      that observed an early releaser's pages ([commit.dep]) must not
      report committed — nor already be durable — once that antecedent
      is lost; loss propagates through the forward dependency closure.
      The simulator holds this by construction (dependencies stay on
      one node, whose batches complete in log order); this replay
      re-proves it for every trace.

   A truncated trace (the ring overflowed and a [trace.dropped] summary
   is present) disables the prefix-dependent checks 1, 2, 4, 5 and 6 —
   replaying them from a suffix would fabricate violations — and the
   report says so. *)

(* Fragile matches (warning 4) are errors: see Event. *)
[@@@warning "+4"]

type violation = { invariant : string; time : float; node : int; detail : string }

type report = {
  violations : violation list;
  events_checked : int;
  truncated : bool;
  skipped : string list;  (** invariants disabled by truncation *)
}

let prefix_checks =
  [
    "force-before-ship";
    "batch-loss-closure";
    "release-after-terminal";
    "release-after-submit";
    "closure-loss";
  ]

type state = {
  mutable violations : violation list;  (* newest first *)
  full : bool;  (* complete trace: prefix-dependent checks enabled *)
  durable : (int, int) Hashtbl.t;  (* node -> durable log boundary *)
  pending : (int, int * int) Hashtbl.t;  (* txn -> (node, commit lsn) *)
  completed : (int, unit) Hashtbl.t;  (* txn -> covering force seen *)
  lost : (int, unit) Hashtbl.t;  (* txn -> its batch died in a crash *)
  psn : (string, int) Hashtbl.t;  (* page -> highest shipped PSN *)
  home : (int, int) Hashtbl.t;  (* txn -> node it runs on *)
  terminal : (int, unit) Hashtbl.t;  (* txn -> saw terminal release / commit / abort *)
  early_released : (int, unit) Hashtbl.t;
      (* txn -> surrendered its locks at batch submit (controlled lock
         violation); no further lock/log work allowed until terminal *)
  deps_fwd : (int, int list) Hashtbl.t;  (* antecedent -> dependents *)
  deps_rev : (int, int list) Hashtbl.t;  (* dependent -> antecedents *)
  dragged : (int, unit) Hashtbl.t;  (* txn -> a lost antecedent dragged it down *)
}

let flag st ~invariant ~time ~node detail =
  st.violations <- { invariant; time; node; detail } :: st.violations

let attr_int_d e key = Option.value (Event.attr_int e key) ~default:(-1)
let attr_str_d e key = Option.value (Event.attr_str e key) ~default:""

(* Invariant 2 helper: a force to durable boundary [d] covers every
   pending commit record that starts below it (forces always run to the
   device end, mirroring the group-commit sweep every log force runs). *)
let complete_covered st ~node ~durable ~time =
  let done_ =
    Hashtbl.fold
      (fun txn (n, lsn) acc -> if n = node && lsn < durable then txn :: acc else acc)
      st.pending []
  in
  List.iter
    (fun txn ->
      Hashtbl.remove st.pending txn;
      Hashtbl.replace st.completed txn ())
    done_;
  (* 6: a commit may only become durable after (or together with) every
     antecedent it depends on — the whole batch completed above before
     this check, so same-force antecedents pass.  Satisfied edges are
     settled so a later crash cannot drag dependents of a durable
     antecedent. *)
  List.iter
    (fun txn ->
      (match Hashtbl.find_opt st.deps_rev txn with
      | None -> ()
      | Some antecedents ->
        Hashtbl.remove st.deps_rev txn;
        List.iter
          (fun a ->
            if Hashtbl.mem st.pending a || Hashtbl.mem st.lost a || Hashtbl.mem st.dragged a then
              flag st ~invariant:"closure-loss" ~time ~node
                (Printf.sprintf "T%d became durable while its antecedent T%d was %s" txn a
                   (if Hashtbl.mem st.pending a then "still pending" else "lost")))
          antecedents);
      Hashtbl.remove st.deps_fwd txn)
    done_

let on_force st (e : Event.t) =
  match Event.attr_int e "durable" with
  | None -> ()
  | Some d ->
    Hashtbl.replace st.durable e.Event.node d;
    if st.full then complete_covered st ~node:e.Event.node ~durable:d ~time:e.Event.time

let on_ship st (e : Event.t) =
  let page = attr_str_d e "page" in
  let psn = attr_int_d e "psn" in
  let node = e.Event.node in
  (* 3: PSN lineage *)
  (match Hashtbl.find_opt st.psn page with
  | Some prev when psn < prev ->
    flag st ~invariant:"psn-monotonic" ~time:e.Event.time ~node
      (Printf.sprintf "page %s shipped with psn %d after psn %d" page psn prev)
  | Some _ | None -> Hashtbl.replace st.psn page psn);
  (* 1: WAL *)
  if st.full then
    match Event.attr_int e "lsn" with
    | Some lsn when lsn >= 0 ->
      let durable = Option.value (Hashtbl.find_opt st.durable node) ~default:(-1) in
      if lsn >= durable then
        flag st ~invariant:"force-before-ship" ~time:e.Event.time ~node
          (Printf.sprintf "page %s shipped with last lsn %d but node durable boundary is %d" page
             lsn durable)
    | Some _ | None -> ()

let on_submit st (e : Event.t) =
  if st.full then begin
    let txn = Event.txn_of e in
    if txn >= 0 then begin
      (* latest submit wins: a blocked commit may legally resubmit *)
      Hashtbl.replace st.pending txn (e.Event.node, attr_int_d e "lsn");
      Hashtbl.remove st.lost txn;
      Hashtbl.remove st.completed txn
    end
  end

let on_crash st (e : Event.t) =
  let node = e.Event.node in
  if st.full then begin
    (* whole-batch loss: everything still pending on this node died *)
    let dead =
      Hashtbl.fold (fun txn (n, _) acc -> if n = node then txn :: acc else acc) st.pending []
    in
    List.iter
      (fun txn ->
        Hashtbl.remove st.pending txn;
        Hashtbl.replace st.lost txn ();
        (* recovery legally rolls the loser back; its post-crash log
           activity must not read as work after an early release *)
        Hashtbl.remove st.early_released txn)
      dead;
    (* 6: loss propagates through the forward dependency closure — any
       transaction that observed a dead member's early-released pages
       is dragged down, transitively.  One already durable is the
       violation the gate in [Cluster.commit_outcome] exists to
       prevent. *)
    let queue = ref dead in
    let seen = Hashtbl.create 8 in
    List.iter (fun txn -> Hashtbl.replace seen txn ()) dead;
    while not (List.is_empty !queue) do
      let txn = List.hd !queue in
      queue := List.tl !queue;
      List.iter
        (fun d ->
          if not (Hashtbl.mem seen d) then begin
            Hashtbl.replace seen d ();
            Hashtbl.replace st.dragged d ();
            if Hashtbl.mem st.completed d then
              flag st ~invariant:"closure-loss" ~time:e.Event.time ~node
                (Printf.sprintf "T%d was already durable when its antecedent T%d was lost" d txn);
            queue := d :: !queue
          end)
        (Option.value (Hashtbl.find_opt st.deps_fwd txn) ~default:[])
    done
  end

let on_commit st (e : Event.t) =
  let txn = Event.txn_of e in
  if txn >= 0 then begin
    if st.full then begin
      if Hashtbl.mem st.lost txn then
        flag st ~invariant:"batch-loss-closure" ~time:e.Event.time ~node:e.Event.node
          (Printf.sprintf "T%d reported committed after its batch was lost to a crash" txn)
      else if Hashtbl.mem st.pending txn then
        flag st ~invariant:"batch-loss-closure" ~time:e.Event.time ~node:e.Event.node
          (Printf.sprintf "T%d reported committed before a force covered its commit record" txn)
      else if not (Hashtbl.mem st.completed txn) then
        flag st ~invariant:"batch-loss-closure" ~time:e.Event.time ~node:e.Event.node
          (Printf.sprintf "T%d reported committed without a submitted commit record" txn);
      if Hashtbl.mem st.dragged txn then
        flag st ~invariant:"closure-loss" ~time:e.Event.time ~node:e.Event.node
          (Printf.sprintf "T%d reported committed after a lost antecedent dragged it down" txn)
    end;
    Hashtbl.remove st.early_released txn;
    Hashtbl.replace st.terminal txn ()
  end

let on_abort st (e : Event.t) =
  let txn = Event.txn_of e in
  if txn >= 0 then begin
    Hashtbl.remove st.early_released txn;
    Hashtbl.replace st.terminal txn ()
  end

let on_begin st (e : Event.t) =
  let txn = Event.txn_of e in
  if txn >= 0 then Hashtbl.replace st.home txn e.Event.node

(* Invariant 4, lock-activity side: a transaction past its terminal
   point must not request/acquire locks or append log records. *)
let check_terminal st what (e : Event.t) =
  if st.full then begin
    let txn = e.Event.txn in
    if txn >= 0 then
      if Hashtbl.mem st.terminal txn then
        flag st ~invariant:"release-after-terminal" ~time:e.Event.time ~node:e.Event.node
          (Printf.sprintf "T%d performed %s after its terminal lock release" txn what)
      else if Hashtbl.mem st.early_released txn then
        (* 5: the weakened discipline still forbids work after the
           early release — the transaction sits in its batch, nothing
           more *)
        flag st ~invariant:"release-after-submit" ~time:e.Event.time ~node:e.Event.node
          (Printf.sprintf "T%d performed %s after releasing its locks early" txn what)
  end

(* Invariant 5, release side: the early-release summary event (it
   carries a [txn] attr; the per-page trace from the lock table does
   not) is legal only while the releaser's submitted commit record is
   still awaiting its covering force. *)
let on_early_release st (e : Event.t) =
  if st.full then
    match Event.attr_int e "txn" with
    | None -> ()
    | Some txn ->
      if Hashtbl.mem st.terminal txn then
        flag st ~invariant:"release-after-terminal" ~time:e.Event.time ~node:e.Event.node
          (Printf.sprintf "T%d released locks early after its terminal point" txn)
      else if not (Hashtbl.mem st.pending txn) then
        flag st ~invariant:"release-after-submit" ~time:e.Event.time ~node:e.Event.node
          (Printf.sprintf
             "T%d released its locks early without a submitted, uncovered commit record" txn)
      else Hashtbl.replace st.early_released txn ()

(* Invariant 6, edge side: record who observed whose pre-durable state.
   An edge on an already-covered antecedent constrains nothing. *)
let on_commit_dep st (e : Event.t) =
  if st.full then
    match (Event.attr_int e "txn", Event.attr_int e "on") with
    | Some dependent, Some antecedent when Hashtbl.mem st.pending antecedent ->
      let push tbl k v = Hashtbl.replace tbl k (v :: Option.value (Hashtbl.find_opt tbl k) ~default:[]) in
      push st.deps_fwd antecedent dependent;
      push st.deps_rev dependent antecedent
    | _ -> ()

(* Invariant 4, release side: the terminal release is a node-level
   cached-lock drop (no [holder] attr — owner-table releases carry one)
   at the transaction's own node, emitted by its end-of-transaction
   release sweep.  Callback-path drops run under the *requester's*
   context at the holder's node and never match. *)
let on_release st (e : Event.t) =
  let txn = e.Event.txn in
  if txn >= 0 && Option.is_none (Event.attr e "holder") then
    match Hashtbl.find_opt st.home txn with
    | Some home when home = e.Event.node -> Hashtbl.replace st.terminal txn ()
    | Some _ | None -> ()

(* One case per Event.kind, no wildcard: a new event kind must make a
   conscious appearance here (warning 4 is an error in this file). *)
let dispatch st (e : Event.t) =
  match e.Event.kind with
  | Event.Msg_send -> ()
  | Event.Msg_recv -> ()
  | Event.Log_append -> check_terminal st "a log append" e
  | Event.Log_force -> on_force st e
  | Event.Page_read -> ()
  | Event.Page_write -> ()
  | Event.Page_ship -> on_ship st e
  | Event.Cache_install -> ()
  | Event.Cache_evict -> ()
  | Event.Lock_request -> check_terminal st "a lock request" e
  | Event.Lock_grant -> ()
  | Event.Lock_callback -> ()
  | Event.Lock_demote -> ()
  | Event.Lock_release -> on_release st e
  | Event.Lock_acquired -> check_terminal st "a lock acquisition" e
  | Event.Ckpt_begin -> ()
  | Event.Ckpt_end -> ()
  | Event.Txn_begin -> on_begin st e
  | Event.Txn_commit -> on_commit st e
  | Event.Txn_abort -> on_abort st e
  | Event.Commit_submit -> on_submit st e
  | Event.Commit_batch -> ()
  | Event.Commit_dep -> on_commit_dep st e
  | Event.Lock_early_release -> on_early_release st e
  | Event.Crash -> on_crash st e
  | Event.Recovery_begin -> ()
  | Event.Recovery_end -> ()
  | Event.Recovery_phase -> ()
  | Event.Recovery_restart -> ()
  | Event.Recovery_retry -> ()
  | Event.Fault_drop -> ()
  | Event.Fault_dup -> ()
  | Event.Fault_delay -> ()
  | Event.Fault_partition -> ()
  | Event.Fault_torn -> ()
  | Event.Fault_crash -> ()
  | Event.Trace_dropped -> ()

let run events =
  let truncated =
    (* a constant constructor: physical equality is exact *)
    List.exists (fun (e : Event.t) -> e.Event.kind == Event.Trace_dropped) events
  in
  let st =
    {
      violations = [];
      full = not truncated;
      durable = Hashtbl.create 8;
      pending = Hashtbl.create 64;
      completed = Hashtbl.create 256;
      lost = Hashtbl.create 16;
      psn = Hashtbl.create 256;
      home = Hashtbl.create 256;
      terminal = Hashtbl.create 256;
      early_released = Hashtbl.create 64;
      deps_fwd = Hashtbl.create 64;
      deps_rev = Hashtbl.create 64;
      dragged = Hashtbl.create 16;
    }
  in
  List.iter (dispatch st) events;
  {
    violations = List.rev st.violations;
    events_checked = List.length events;
    truncated;
    skipped = (if truncated then prefix_checks else []);
  }

let ok (r : report) = List.is_empty r.violations

let to_json (r : report) =
  Json.Obj
    [
      ("ok", Json.Bool (ok r));
      ("events_checked", Json.Int r.events_checked);
      ("truncated", Json.Bool r.truncated);
      ("skipped", Json.List (List.map (fun s -> Json.Str s) r.skipped));
      ( "violations",
        Json.List
          (List.map
             (fun v ->
               Json.Obj
                 [
                   ("invariant", Json.Str v.invariant);
                   ("time", Json.Float v.time);
                   ("node", Json.Int v.node);
                   ("detail", Json.Str v.detail);
                 ])
             r.violations) );
    ]

let pp ppf (r : report) =
  if ok r then
    Format.fprintf ppf "audit: OK (%d events%s)@." r.events_checked
      (if r.truncated then ", truncated — prefix checks skipped" else "")
  else begin
    Format.fprintf ppf "audit: %d violation(s) in %d events@." (List.length r.violations)
      r.events_checked;
    List.iter
      (fun v ->
        Format.fprintf ppf "  [%s] t=%.6f node %d: %s@." v.invariant v.time v.node v.detail)
      r.violations
  end
