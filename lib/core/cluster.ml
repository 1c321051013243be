module Env = Repro_sim.Env
module Page_id = Repro_storage.Page_id
module Mode = Repro_lock.Mode
module Local_locks = Repro_lock.Local_locks
module Global_locks = Repro_lock.Global_locks
module Group_commit = Repro_wal.Group_commit

type t = {
  env : Env.t;
  members : Node_state.t array;
  mutable next_txn : int;
  mutable txn_home : int array;
      (* home node per transaction, indexed by txn id (ids are handed
         out sequentially from 1); -1 = unknown.  A flat array: txn→node
         resolution fronts every engine operation, and at scale the
         hashing dominated the lookup. *)
  durable_commits : (int, unit) Hashtbl.t;
      (* group-commit outcomes: transactions whose commit record became
         durable, not yet reported to the caller.  Written from the
         [on_durable] hook BEFORE any completion work, so an injected
         crash during completion cannot lose the verdict.  Read-once by
         [commit_outcome]. *)
  lost_commits : (int, unit) Hashtbl.t;
      (* transactions whose submitted commit was lost with its batch.
         Read-once by [commit_outcome]: [`Gone]. *)
}

let create ?(trace = false) ?trace_capacity:_ ?seed:_ ?faults ?(pool_capacity = 64) ?log_capacity
    ?scheme ?retain_cached_locks ~nodes config =
  if nodes <= 0 then invalid_arg "Cluster.create: need at least one node";
  let env = Env.create ~trace ?faults config in
  let members =
    Array.init nodes (fun id ->
        Node.create env ~id ~pool_capacity ?log_capacity ?scheme ?retain_cached_locks ())
  in
  let resolve id =
    if id < 0 || id >= nodes then invalid_arg (Printf.sprintf "Cluster: no node %d" id);
    members.(id)
  in
  Array.iter (fun n -> n.Node_state.resolve <- resolve) members;
  let durable_commits = Hashtbl.create 64 in
  let lost_commits = Hashtbl.create 16 in
  Array.iter
    (fun n ->
      Node.wire_group_commit n
        ~on_lost:(fun lost ->
          (* The pending batch died with its node: every member is
             gone.  So is anyone who observed a member's early-released
             pages — they all ran on that node. *)
          List.iter (fun txn -> Hashtbl.replace lost_commits txn ()) lost)
        ~on_durable:(fun ~txn ~submitted_at:_ -> Hashtbl.replace durable_commits txn ())
        ())
    members;
  { env; members; next_txn = 0; txn_home = Array.make 64 (-1); durable_commits; lost_commits }

let env t = t.env
let node_count t = Array.length t.members

let node t id =
  if id < 0 || id >= node_count t then invalid_arg (Printf.sprintf "Cluster: no node %d" id);
  t.members.(id)

let nodes t = Array.to_list t.members
let now t = Env.now t.env

let allocate_pages t ~owner ~count =
  let n = node t owner in
  List.init count (fun _ -> Node.allocate_page n)

let begin_txn t ~node:node_id =
  let n = node t node_id in
  t.next_txn <- t.next_txn + 1;
  let id = t.next_txn in
  let _txn = Node.begin_txn n ~id in
  if id >= Array.length t.txn_home then begin
    let grown = Array.make (2 * max id (Array.length t.txn_home)) (-1) in
    Array.blit t.txn_home 0 grown 0 (Array.length t.txn_home);
    t.txn_home <- grown
  end;
  t.txn_home.(id) <- node_id;
  id

let txn_node t txn =
  if txn >= 0 && txn < Array.length t.txn_home && t.txn_home.(txn) >= 0 then t.txn_home.(txn)
  else invalid_arg (Printf.sprintf "Cluster: unknown transaction %d" txn)

let home t txn = node t (txn_node t txn)

let read t ~txn ~pid ~off ~len = Node.read (home t txn) ~txn ~pid ~off ~len
let read_cell t ~txn ~pid ~off = Node.read_cell (home t txn) ~txn ~pid ~off
let update_bytes t ~txn ~pid ~off s = Node.update_bytes (home t txn) ~txn ~pid ~off s
let update_delta t ~txn ~pid ~off d = Node.update_delta (home t txn) ~txn ~pid ~off d

let commit t ~txn =
  let n = home t txn in
  Node.commit n ~txn;
  (* Synchronous completion (no batching, or the batch filled and
     flushed inside [Node.commit]): the hook path already registered
     batched completions; register the classic path here so
     [commit_outcome] answers uniformly. *)
  if not (Group_commit.is_pending n.Node_state.gc ~txn) then
    Hashtbl.replace t.durable_commits txn ()

let commit_outcome t ~txn =
  let n = home t txn in
  if Hashtbl.mem t.lost_commits txn then begin
    Hashtbl.remove t.lost_commits txn;
    `Gone
  end
  else if Node.is_up n && Group_commit.is_pending n.Node_state.gc ~txn then `Pending
  else if Hashtbl.mem t.durable_commits txn then begin
    Hashtbl.remove t.durable_commits txn;
    `Durable
  end
  else `Gone

let pump_group_commit t ~idle =
  let progressed = ref false in
  let tick_one (n : Node_state.t) =
    if Node.is_up n && Group_commit.pending_count n.Node_state.gc > 0 then begin
      let before = Group_commit.pending_count n.Node_state.gc in
      (match Group_commit.tick n.Node_state.gc ~now:(Env.now t.env) with
      | () -> ()
      | exception Block.Would_block _ ->
        (* the batch force hit an injected crash point and felled the
           node; its batch is lost — that IS progress for the caller *)
        ());
      if Group_commit.pending_count n.Node_state.gc <> before then progressed := true
    end
  in
  Array.iter tick_one t.members;
  if idle && not !progressed then begin
    (* Every client is blocked on a pending commit and no batch is due:
       advance the clock to the earliest deadline (the simulation's
       version of the group-commit timer firing). *)
    let earliest =
      Array.fold_left
        (fun acc n ->
          if Node.is_up n then
            match Group_commit.deadline n.Node_state.gc with Some d -> min acc d | None -> acc
          else acc)
        infinity t.members
    in
    if earliest < infinity then begin
      let now = Env.now t.env in
      if earliest > now then Env.charge_cpu t.env (earliest -. now);
      Array.iter tick_one t.members;
      progressed := true
    end
  end;
  !progressed

let abort t ~txn = Node.abort (home t txn) ~txn

let savepoint t ~txn name = Node.savepoint (home t txn) ~txn name
let rollback_to t ~txn name = Node.rollback_to (home t txn) ~txn name

let checkpoint t ~node:node_id = Node.checkpoint (node t node_id)

let crash t ~node:node_id = Node.crash (node t node_id)

let recover_timed ?strategy t ~nodes:ids =
  (match List.find_opt (fun id -> List.length (List.filter (( = ) id) ids) > 1) ids with
  | Some id ->
    invalid_arg (Printf.sprintf "Cluster.recover: node %d listed more than once to recover" id)
  | None -> ());
  let crashed = List.map (node t) ids in
  let listed n = List.mem (Node.id n) ids in
  (* Recovery treats every node outside the crashed set as a live
     source of page bases, DPT claims and log records.  A down node left
     out would silently contribute a stale disk base and none of its log
     records — a redo gap waiting to happen — so name it instead. *)
  (match List.filter (fun n -> (not (Node.is_up n)) && not (listed n)) (nodes t) with
  | [] -> ()
  | forgotten ->
    invalid_arg
      (Printf.sprintf "Cluster.recover: node(s) %s are down; recover all down nodes together"
         (String.concat ", " (List.map (fun n -> string_of_int (Node.id n)) forgotten))));
  let operational = List.filter (fun n -> Node.is_up n && not (listed n)) (nodes t) in
  Recovery.run ?strategy ~crashed ~operational ()

let recover ?strategy t ~nodes = ignore (recover_timed ?strategy t ~nodes)

let recover_until_up t =
  let rec go attempts =
    match List.filter (fun n -> not (Node.is_up n)) (nodes t) with
    | [] -> ()
    | down ->
      if attempts >= 100 then
        Fmt.failwith "Cluster.recover_until_up: node(s) %s still down after 100 attempts"
          (String.concat ", " (List.map (fun n -> string_of_int (Node.id n)) down));
      (try recover t ~nodes:(List.map Node.id down) with Block.Would_block _ -> ());
      go (attempts + 1)
  in
  go 0

let dep_edges_registered t =
  Array.fold_left (fun acc n -> acc + n.Node_state.dep_edges) 0 t.members
let global_metrics t =
  let sum = Repro_sim.Metrics.create () in
  Array.iter (fun n -> Repro_sim.Metrics.merge_into ~dst:sum n.Node_state.metrics) t.members;
  sum
let node_metrics t id = (node t id).Node_state.metrics

let check_invariants t =
  Array.iter (fun n -> if Node.is_up n then Node.check_invariants n) t.members;
  (* Cross-node: every cached node-level lock has a covering entry in
     the owner's table, and every owner-side entry is cached at the
     holder. *)
  Array.iter
    (fun n ->
      if Node.is_up n then
        List.iter
          (fun (pid, mode) ->
            let owner = t.members.(Page_id.owner pid) in
            if Node.is_up owner then
              match Global_locks.holder_mode owner.Node_state.glocks ~node:n.Node_state.id ~pid with
              | Some held when Mode.covers held mode -> ()
              | Some held ->
                invalid_arg
                  (Format.asprintf "node %d caches %a on %a but owner records %a"
                     n.Node_state.id Mode.pp mode Page_id.pp pid Mode.pp held)
              | None ->
                invalid_arg
                  (Format.asprintf "node %d caches %a on %a unknown to owner" n.Node_state.id
                     Mode.pp mode Page_id.pp pid))
          (Local_locks.cached_pages n.Node_state.locks))
    t.members;
  Array.iter
    (fun owner ->
      if Node.is_up owner then
        List.iter
          (fun pid ->
            List.iter
              (fun (holder_id, mode) ->
                let holder = t.members.(holder_id) in
                if
                  Node.is_up holder
                  && holder_id <> owner.Node_state.id
                  && not (Local_locks.cache_covers holder.Node_state.locks pid mode)
                then
                  invalid_arg
                    (Format.asprintf "owner %d records %a holding %a on %a but holder disagrees"
                       owner.Node_state.id
                       (fun ppf -> Format.fprintf ppf "node %d")
                       holder_id Mode.pp mode Page_id.pp pid))
              (Global_locks.holders owner.Node_state.glocks ~pid))
          (Global_locks.pages owner.Node_state.glocks))
    t.members
