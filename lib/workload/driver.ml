module Page_id = Repro_storage.Page_id
module Block = Repro_cbl.Block
module Env = Repro_sim.Env
module Stats = Repro_util.Stats
module Heap = Repro_util.Heap

type event = Crash of int | Recover of int list | Checkpoint of int

type outcome = {
  engine : Engine.t;
  committed : int;
  voluntary_aborts : int;
  deadlock_aborts : int;
  stuck : int;
  rounds : int;
  sched_events : int;
  sim_seconds : float;
  latencies : Stats.summary;
  shadow : ((Page_id.t * int) * int64) list;
}

(* Per-transaction effects buffered until commit; savepoint marks let a
   partial rollback discard exactly the suffix. *)
type effect = Delta of (Page_id.t * int) * int64 | Mark of string

(* Where a script stands.  The first four are running; a script holds a
   transaction in [Active], [Aborting] and [Committing]. *)
type state =
  | Waiting  (** no transaction: waits to begin (possibly parked at the MPL cap) *)
  | Active of int
  | Aborting of int
      (** a wound or forced abort blocked part-way (its undo needs a
          down node): the transaction is half rolled back and must not
          run forward again — only the abort is retried until it
          completes *)
  | Committing of int
      (** the commit joined a group-commit batch that is not yet
          durable: the script runs nothing further and polls
          [commit_outcome] until the batch forces (Durable) or a crash
          loses it (Gone) *)
  | Committed
  | Aborted

type prog = {
  idx : int;  (* position in the script list; the round-robin tiebreak *)
  node : int;  (* the script's home node *)
  actions : Op.action array;
  mutable state : state;  (* written only by [set_state] *)
  mutable step : int;
  mutable effects : effect list; (* newest first *)
  mutable retries : int;
  mutable began_at : float;
  mutable wake : int;
      (* next round this program acts.  The authoritative copy: the run
         queue may hold stale entries for earlier reschedules, dropped
         on pop when they disagree with this field. *)
}

let is_running = function
  | Waiting | Active _ | Aborting _ | Committing _ -> true
  | Committed | Aborted -> false

let rec drop_to_mark name = function
  | [] -> []
  | Mark m :: rest when String.equal m name -> Mark m :: rest
  | (Delta _ | Mark _) :: rest -> drop_to_mark name rest

(* Run-queue keys pack (wake round, program index) into one int so heap
   operations never allocate; same round pops in ascending index order,
   which is exactly the legacy Array.iteri scan order. *)
let idx_bits = 22
let idx_mask = (1 lsl idx_bits) - 1

let run (engine : Engine.t) ?(events = []) ?(max_rounds = 100_000) ?(mpl = max_int) ?auto_recover
    scripts =
  let progs =
    Array.of_list
      (List.mapi
         (fun idx (s : Op.script) ->
           {
             idx;
             node = s.Op.node;
             actions = Array.of_list s.Op.actions;
             state = Waiting;
             step = 0;
             effects = [];
             retries = 0;
             began_at = 0.;
             wake = 0;
           })
         scripts)
  in
  if Array.length progs > idx_mask then
    invalid_arg (Printf.sprintf "Driver.run: more than %d scripts" idx_mask);
  let shadow : (Page_id.t * int, int64) Hashtbl.t = Hashtbl.create 64 in
  let committed = ref 0 in
  let voluntary = ref 0 in
  let deadlock_aborts = ref 0 in
  let latencies = ref [] in
  let t0 = Env.now engine.Engine.env in
  let round = ref 0 in
  let sched_events = ref 0 in
  (* Scheduling state.  [running] counts running programs (the loop
     condition); [active] counts programs holding a transaction, per
     node — the persistent form of the per-round snapshot the legacy
     scan rebuilt; [admit] is this round's working copy (begins bump it
     so later programs in the same round see the slot taken; finishes
     only surface next round, exactly as the snapshot behaved).
     [running], [active] and [by_txn] follow each program's [state]
     and are written only by [set_state]. *)
  let running = ref (Array.length progs) in
  let max_node = List.fold_left max 0 engine.Engine.nodes in
  let max_node = Array.fold_left (fun acc p -> max acc p.node) max_node progs in
  let active = Array.make (max_node + 1) 0 in
  let admit = Array.make (max_node + 1) 0 in
  let by_txn : (int, prog) Hashtbl.t = Hashtbl.create 256 in
  let set_state p s =
    (match p.state with
    | Active txn | Aborting txn | Committing txn ->
      active.(p.node) <- active.(p.node) - 1;
      Hashtbl.remove by_txn txn
    | Waiting | Committed | Aborted -> ());
    (match s with
    | Active txn | Aborting txn | Committing txn ->
      active.(p.node) <- active.(p.node) + 1;
      Hashtbl.replace by_txn txn p
    | Committed | Aborted -> decr running
    | Waiting -> ());
    p.state <- s
  in
  let runq = Heap.create ~capacity:(max 16 (Array.length progs)) () in
  Array.iter (fun p -> Heap.push runq p.idx (* wake 0 ⇒ key = idx *)) progs;
  (* Admission queue: per node, the indices of scripts waiting to begin
     while their node is at its MPL cap.  A parked script is off the run
     queue ([wake = max_int]) until the cap has room for it; [n_parked]
     counts them all, so the visits the legacy scan would have wasted on
     them are still counted in [sched_events]. *)
  let parked = Array.init (max_node + 1) (fun _ -> Heap.create ()) in
  let n_parked = ref 0 in
  (* [scan_idx] is the index currently being processed (-1 outside the
     scan).  A cooldown set at or before the program's own turn this
     round starts counting next round — the legacy per-visit decrement
     translated into an absolute wake round. *)
  let scan_idx = ref (-1) in
  let set_cooldown p c =
    let wake = !round + c + if p.idx <= !scan_idx then 1 else 0 in
    p.wake <- wake;
    Heap.push runq ((wake lsl idx_bits) lor p.idx)
  in
  let reset_prog p =
    set_state p Waiting;
    p.step <- 0;
    p.effects <- [];
    p.retries <- p.retries + 1;
    (* Backoff breaks the symmetry that would otherwise re-create the
       same conflict on the very next round. *)
    set_cooldown p (min 32 (3 * p.retries))
  in
  let apply_effects p =
    List.iter
      (function
        | Delta (key, d) ->
          let cur = Option.value (Hashtbl.find_opt shadow key) ~default:0L in
          Hashtbl.replace shadow key (Int64.add cur d)
        | Mark _ -> ())
      (List.rev p.effects)
  in
  (* The commit is durable: credit the script's effects. *)
  let finalize_commit p =
    apply_effects p;
    set_state p Committed;
    incr committed;
    latencies := (Env.now engine.Engine.env -. p.began_at) :: !latencies
  in
  let finish_commit p txn =
    engine.Engine.commit ~txn;
    match engine.Engine.commit_outcome ~txn with
    | `Durable -> finalize_commit p
    | `Pending | `Gone ->
      (* Group commit: the transaction joined its node's batch and is
         not durable yet — the script stops here and polls. *)
      set_state p (Committing txn)
  in
  (* The script's home node crashed (or is about to): decide what the
     in-flight transaction's fate is.  A submitted commit whose batch
     already forced IS durable — it survives the crash and must never
     be re-run (double apply); anything else died with the node's
     volatile state and restarts from scratch. *)
  let crash_reset p =
    match p.state with
    | Committing txn -> (
      match engine.Engine.commit_outcome ~txn with
      | `Durable -> finalize_commit p
      | `Pending | `Gone -> reset_prog p)
    | Active _ | Aborting _ -> reset_prog p
    | Waiting | Committed | Aborted -> ()
  in
  (* Every script homed at one of [nodes] (down, or about to go down)
     loses its in-flight transaction, except a durable one. *)
  let crash_reset_homed nodes =
    Array.iter (fun p -> if List.mem p.node nodes then crash_reset p) progs
  in
  (* Abort [txn] on behalf of prog [p] (wound, forced self-abort, or a
     retried half-abort).  The rollback itself can block — a CLR may
     need a page whose owner is down — leaving the transaction half
     rolled back.  It must then be quarantined: letting the script run
     forward again would commit a transaction whose early updates were
     already compensated away, i.e. silently lose committed effects.
     The prog sits out in [Aborting] and only the abort is retried
     until the rollback completes. *)
  let abort_prog p txn =
    match engine.Engine.abort ~txn with
    | () ->
      incr deadlock_aborts;
      reset_prog p
    | exception Block.Would_block _ ->
      set_state p (Aborting txn);
      set_cooldown p 4
  in
  (* Older transactions wound younger blockers; younger waiters simply
     wait.  Starvation-free, no cycles. *)
  let wound txn blockers =
    List.iter
      (fun blocker ->
        if blocker > txn then
          match Hashtbl.find_opt by_txn blocker with
          | Some ({ state = Active _ | Aborting _; _ } as q) -> abort_prog q blocker
          | Some { state = Committing _ | Waiting | Committed | Aborted; _ } | None ->
            (* A committing blocker is not abortable (its fate is the
               batch force), and its locks release the moment the batch
               flushes — waiting is both necessary and short.  With
               early lock release on, a committing transaction has
               already surrendered its locks at submit and never shows
               up as a blocker here; acquirers proceed under a commit
               dependency instead. *)
            ())
      blockers
  in
  let progressed = ref false in
  (* One attempt to advance a script by one action. *)
  let advance p =
    match p.state with
    | Waiting ->
      let txn = engine.Engine.begin_txn ~node:p.node in
      set_state p (Active txn);
      p.began_at <- Env.now engine.Engine.env
    | Active txn ->
      if p.step >= Array.length p.actions then finish_commit p txn
      else begin
        (match p.actions.(p.step) with
        | Op.Read { pid; off } -> ignore (engine.Engine.read_cell ~txn ~pid ~off)
        | Op.Update { pid; off; delta } ->
          engine.Engine.update_delta ~txn ~pid ~off delta;
          p.effects <- Delta ((pid, off), delta) :: p.effects
        | Op.Write { pid; off; data } -> engine.Engine.update_bytes ~txn ~pid ~off data
        | Op.Savepoint name ->
          engine.Engine.savepoint ~txn name;
          p.effects <- Mark name :: p.effects
        | Op.Rollback_to name ->
          engine.Engine.rollback_to ~txn name;
          p.effects <- drop_to_mark name p.effects
        | Op.Abort_self ->
          engine.Engine.abort ~txn;
          set_state p Aborted;
          incr voluntary);
        p.step <- p.step + 1
      end
    | Aborting _ | Committing _ | Committed | Aborted -> ()
  in
  let fire = function
    | Crash node ->
      (* Scripts homed at the node lose their in-flight transaction —
         except a submitted commit whose batch already forced, which is
         durable and survives. *)
      crash_reset_homed [ node ];
      engine.Engine.crash ~node
    | Recover nodes -> (
      (* An injected crash may already have been recovered (or never
         happened): recover only what is actually down — Recovery.run
         rejects up nodes in the crashed list.  And recover every down
         node at once, not just the scheduled ones: recovery gathers
         claims, page bases and log records from every node outside the
         crashed set, so recovering a subset while another node is still
         down reads stale disk bases for its pages and misses its log
         records entirely (observed as redo gaps on re-crash). *)
      match List.filter (fun n -> not (engine.Engine.is_up ~node:n)) nodes with
      | [] -> ()
      | _ :: _ ->
        let down =
          List.filter (fun n -> not (engine.Engine.is_up ~node:n)) engine.Engine.nodes
        in
        (* A crash point may have felled the node within this same round
           (a checkpoint event crashing mid-way just before this Recover
           fires): scripts homed there still hold transactions that died
           in the crash and must restart. *)
        crash_reset_homed down;
        engine.Engine.recover ~nodes:down)
    | Checkpoint node -> if engine.Engine.is_up ~node then engine.Engine.checkpoint ~node
  in
  (* A step of a Waiting or Active script.  A real system would queue a
     blocked request; polling every round would melt the network, so a
     blocked script sits out a few rounds before retrying. *)
  let step p =
    match advance p with
    | () -> progressed := true
    | exception Block.Would_block reason -> (
      set_cooldown p 4;
      match (p.state, reason) with
      | Active _, _ when not (engine.Engine.is_up ~node:p.node) ->
        (* The home node itself crashed mid-operation (an injected
           crash point): the in-flight transaction died with it.
           Restart it once the node is back. *)
        crash_reset p
      | Active txn, Block.Lock_conflict { blockers = [ b ] } when b = txn ->
        (* self-blocking (e.g. the transaction's own undo chain pins a
           full log): forced abort and restart *)
        abort_prog p txn
      | Active txn, Block.Lock_conflict { blockers } -> wound txn blockers
      | ( (Waiting | Active _ | Aborting _ | Committing _ | Committed | Aborted),
          ( Block.Lock_conflict _ | Block.Node_down _ | Block.Log_space _
          | Block.Page_recovering _ | Block.Net_unreachable _ | Block.Page_unavailable _ ) ) ->
        (* Net_unreachable heals by retrying: every probe drains the
           partition's budget, so sitting out the cooldown and retrying
           is the bounded-retry loop.  Nothing raises Page_unavailable
           (see Block); its arm stays while the benchmark's per-reason
           table still names it. *)
        ())
  in
  (* Process one runnable program: the same branch ladder the legacy
     per-round scan evaluated at every visit, minus the cooldown branch
     (a cooling program simply is not scheduled). *)
  let process p =
    match p.state with
    | Aborting txn ->
      if not (engine.Engine.is_up ~node:p.node) then
        (* The home node crashed under the half-aborted transaction:
           its volatile state is gone and recovery finishes the
           rollback — retrying the abort after recovery would ask for a
           transaction that no longer exists.  Restart from scratch. *)
        reset_prog p
      else begin
        abort_prog p txn;
        match p.state with
        | Aborting _ -> ()
        | Waiting | Active _ | Committing _ | Committed | Aborted -> progressed := true
      end
    | Committing txn -> (
      (* Poll a submitted group commit: a committing transaction is no
         longer Active and must not re-enter [commit]. *)
      match engine.Engine.commit_outcome ~txn with
      | `Durable ->
        finalize_commit p;
        progressed := true
      | `Pending -> () (* the pump below drives the window timer *)
      | `Gone ->
        (* the batch was lost to a crash before its force: the commit
           never happened — restart the script *)
        reset_prog p)
    | Waiting ->
      (* multiprogramming limit: at most [mpl] in-flight transactions
         per node; surplus scripts wait to begin *)
      if admit.(p.node) < mpl then begin
        admit.(p.node) <- admit.(p.node) + 1;
        step p
      end
    | Active _ -> step p
    | Committed | Aborted -> ()
  in
  let stalled = ref 0 in
  let events = ref events in
  let is_due (r, _) = r <= !round in
  let known_down = Hashtbl.create 8 in
  while !running > 0 && !round < max_rounds && !stalled < 1000 do
    scan_idx := -1;
    (* With fault injection, nodes crash at protocol crash points — no
       Recover event exists for those.  Find newly-down nodes, strand
       no scripts on them, and schedule their recovery.  This scan runs
       BEFORE the due events: a pre-scheduled Recover could otherwise
       bring the node back first, leaving scripts holding transactions
       that died in the crash. *)
    (match auto_recover with
    | None -> ()
    | Some delay ->
      List.iter
        (fun node ->
          let up = engine.Engine.is_up ~node in
          if (not up) && not (Hashtbl.mem known_down node) then begin
            Hashtbl.replace known_down node ();
            crash_reset_homed [ node ];
            events := (!round + delay, Recover [ node ]) :: !events
          end
          else if up then Hashtbl.remove known_down node)
        engine.Engine.nodes);
    (* A fired event can itself hit an injected crash point (a
       checkpoint crashing mid-way): the crash is the point, the event
       just stops.  A Recover event is special: recovery itself can die
       at a recovery-class crash point (or exhaust its retries against a
       partitioned peer), aborting the whole attempt — re-schedule it,
       so the re-entry picks up the grown down set and restarts from
       durable state.  The crash budget is bounded, so the retry chain
       terminates. *)
    if List.exists is_due !events then begin
      let due, later = List.partition is_due !events in
      events := later;
      List.iter
        (fun (_, e) ->
          try fire e
          with Block.Would_block _ -> (
            match e with
            | Recover _ -> events := (!round + 2, e) :: !events
            | Crash _ | Checkpoint _ -> ()))
        due
    end;
    progressed := false;
    Array.blit active 0 admit 0 (Array.length active);
    (* Unpark.  A node's [admit] only rises within a round, and every
       waiting visit below the cap takes a slot (even one whose begin
       blocks), so at most [mpl - active] waiting scripts can begin this
       round: the lowest-index parked ones.  Any parked script behind
       them would find the cap full, as would an unparked one that loses
       its slot to a lower-index script — it re-parks on its visit.  The
       rest stay parked; their would-be visits are counted, not made. *)
    if !n_parked > 0 then begin
      for node = 0 to max_node do
        let q = parked.(node) in
        for _ = 1 to min (mpl - active.(node)) (Heap.length q) do
          let idx = Heap.pop_min q in
          progs.(idx).wake <- !round;
          Heap.push runq ((!round lsl idx_bits) lor idx);
          decr n_parked
        done
      done;
      sched_events := !sched_events + !n_parked
    end;
    (* Drain this round's runnable programs.  Keys pop in (round, idx)
       order, so same-round programs run in exactly the legacy scan
       order; stale entries (a reschedule moved the program's wake) are
       dropped by the [p.wake = w] check. *)
    let draining = ref true in
    while !draining do
      if Heap.is_empty runq || Heap.min_key runq asr idx_bits > !round then draining := false
      else begin
        let key = Heap.pop_min runq in
        let idx = key land idx_mask in
        let w = key asr idx_bits in
        let p = progs.(idx) in
        if is_running p.state && p.wake = w then begin
          scan_idx := idx;
          incr sched_events;
          process p;
          (* Still running with no cooldown scheduled: acts again next
             round, like every running program under the legacy scan —
             unless it is waiting to begin on a full node, where every
             visit would be a no-op until a slot frees: park it. *)
          if is_running p.state && p.wake <= !round then begin
            match p.state with
            | Waiting when admit.(p.node) >= mpl ->
              p.wake <- max_int;
              Heap.push parked.(p.node) idx;
              incr n_parked
            | Waiting | Active _ | Aborting _ | Committing _ | Committed | Aborted ->
              p.wake <- !round + 1;
              Heap.push runq (((!round + 1) lsl idx_bits) lor idx)
          end
        end
      end
    done;
    scan_idx := -1;
    (* Drive the group-commit window timers.  When nothing else moved
       (every client is waiting on a pending batch), the pump may jump
       the clock to the earliest batch deadline — the timer firing is
       the progress. *)
    (if engine.Engine.pump_commits ~idle:(not !progressed) then progressed := true);
    if !progressed then stalled := 0 else incr stalled;
    incr round
  done;
  {
    engine;
    committed = !committed;
    voluntary_aborts = !voluntary;
    deadlock_aborts = !deadlock_aborts;
    stuck = !running;
    rounds = !round;
    sched_events = !sched_events;
    sim_seconds = Env.now engine.Engine.env -. t0;
    latencies = Stats.summarize (Array.of_list !latencies);
    shadow = Hashtbl.fold (fun k v acc -> (k, v) :: acc) shadow [];
  }

let verify outcome =
  let engine = outcome.engine in
  (* The oracle reads must see the cluster as it is: no further faults. *)
  (match Env.faults engine.Engine.env with
  | Some inj -> Repro_fault.Injector.set_armed inj false
  | None -> ());
  let reader_node =
    let rec find i = if engine.Engine.is_up ~node:i then i else find (i + 1) in
    find 0
  in
  let txn = engine.Engine.begin_txn ~node:reader_node in
  let errors =
    List.filter_map
      (fun (((pid : Page_id.t), off), expected) ->
        let rec read attempts =
          if attempts > 10_000 then failwith "Driver.verify: blocked forever"
          else
            match engine.Engine.read_cell ~txn ~pid ~off with
            | v -> v
            | exception Block.Would_block _ -> read (attempts + 1)
        in
        let actual = read 0 in
        if Int64.equal actual expected then None
        else
          Some
            (Format.asprintf "%a@@%d: expected %Ld, found %Ld" Page_id.pp pid off expected actual))
      (List.sort
         (fun (cell, v) (cell', v') ->
           match Op.compare_cell cell cell' with 0 -> Int64.compare v v' | c -> c)
         outcome.shadow)
  in
  engine.Engine.commit ~txn:txn;
  if List.is_empty errors then Ok () else Error errors

let pp_outcome ppf o =
  Format.fprintf ppf
    "%s: committed=%d voluntary_aborts=%d deadlock_aborts=%d stuck=%d rounds=%d sim=%a@ latency: %a"
    o.engine.Engine.name o.committed o.voluntary_aborts o.deadlock_aborts o.stuck o.rounds
    Repro_util.Pretty.seconds o.sim_seconds Stats.pp_summary o.latencies
