(* Commit-dependency graph for early lock release (controlled lock
   violation).

   When a committing transaction releases its page locks at batch-submit
   time, any transaction that then reads or overwrites those pages has
   observed pre-durable state: it records a *commit dependency* on the
   releaser.  The rules policed here:

   - a dependent may not report [`Durable] while an antecedent is still
     pending — {!durable_blocked} lists the antecedents to wait on;
   - an aborted or lost antecedent drags its whole dependency closure
     down — {!settle_lost} returns the closure so the caller can abort
     every member (PR 3's whole-batch-loss invariant generalised).

   Edges are kept both ways (antecedents per dependent, dependents per
   antecedent) so durability settles edges in O(out-degree) and loss
   walks the forward closure without scanning.  Transaction ids are
   globally unique across the cluster, so one graph serves all nodes. *)

type t = {
  antecedents : (int, int list ref) Hashtbl.t; (* dependent -> pending antecedents *)
  dependents : (int, int list ref) Hashtbl.t; (* antecedent -> dependents *)
  mutable registered : int; (* lifetime count of fresh edges (reporting) *)
}

let create () = { antecedents = Hashtbl.create 64; dependents = Hashtbl.create 64; registered = 0 }

let edge_count t = Hashtbl.fold (fun _ l acc -> acc + List.length !l) t.antecedents 0
let registered_count t = t.registered

let multi_add tbl key v =
  match Hashtbl.find_opt tbl key with
  | Some l -> if not (List.mem v !l) then l := v :: !l
  | None -> Hashtbl.add tbl key (ref [ v ])

let multi_remove tbl key v =
  match Hashtbl.find_opt tbl key with
  | Some l ->
    l := List.filter (fun x -> x <> v) !l;
    if List.is_empty !l then Hashtbl.remove tbl key
  | None -> ()

let add t ~dependent ~antecedent =
  if dependent <> antecedent then begin
    let fresh =
      match Hashtbl.find_opt t.antecedents dependent with
      | Some l -> not (List.mem antecedent !l)
      | None -> true
    in
    multi_add t.antecedents dependent antecedent;
    multi_add t.dependents antecedent dependent;
    if fresh then t.registered <- t.registered + 1;
    fresh
  end
  else false

let antecedents_of t txn =
  match Hashtbl.find_opt t.antecedents txn with Some l -> !l | None -> []

let dependents_of t txn =
  match Hashtbl.find_opt t.dependents txn with Some l -> !l | None -> []

let durable_blocked t txn = antecedents_of t txn

(* The antecedent became durable: its outgoing edges are satisfied and
   disappear.  Its own incoming edges were already gone (a dependent
   cannot settle before its antecedents — the caller gates on
   [durable_blocked]), but scrub them defensively anyway. *)
let settle_durable t txn =
  List.iter (fun d -> multi_remove t.antecedents d txn) (dependents_of t txn);
  Hashtbl.remove t.dependents txn;
  List.iter (fun a -> multi_remove t.dependents a txn) (antecedents_of t txn);
  Hashtbl.remove t.antecedents txn

(* The antecedents died (aborted / lost with their batch): every
   transaction downstream of any of them observed state that never
   became durable, so the whole forward closure must go too.  Returns
   the closure *excluding* the seeds, deterministically ordered (seeds'
   direct dependents first, breadth-first, ties by insertion order),
   with every member's edges removed from the graph. *)
let settle_lost t seeds =
  let doomed = Hashtbl.create 8 in
  List.iter (fun s -> Hashtbl.replace doomed s ()) seeds;
  let closure = ref [] in
  let queue = Queue.create () in
  List.iter (fun s -> Queue.add s queue) seeds;
  while not (Queue.is_empty queue) do
    let txn = Queue.pop queue in
    List.iter
      (fun d ->
        if not (Hashtbl.mem doomed d) then begin
          Hashtbl.replace doomed d ();
          closure := d :: !closure;
          Queue.add d queue
        end)
      (List.rev (dependents_of t txn))
  done;
  let scrub txn =
    List.iter (fun d -> multi_remove t.antecedents d txn) (dependents_of t txn);
    Hashtbl.remove t.dependents txn;
    List.iter (fun a -> multi_remove t.dependents a txn) (antecedents_of t txn);
    Hashtbl.remove t.antecedents txn
  in
  List.iter scrub seeds;
  List.iter scrub !closure;
  List.rev !closure
