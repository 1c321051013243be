module Env = Repro_sim.Env
module Config = Repro_sim.Config
module Event = Repro_obs.Event

type pending = { txn : int; lsn : Lsn.t; submitted_at : float }

type t = {
  env : Env.t;
  node : int;
  log : Log_manager.t;
  window : float; (* seconds *)
  max_batch : int;
  mutable pending : pending list; (* newest first *)
  mutable deadline : float; (* meaningful only while [pending <> []] *)
  mutable before_force : unit -> unit;
  mutable on_durable : txn:int -> submitted_at:float -> unit;
  mutable on_lost : int list -> unit;
}

(* Completion runs oldest-submitted first so observers see commits in
   submission order. *)
let complete t batch =
  List.iter (fun p -> t.on_durable ~txn:p.txn ~submitted_at:p.submitted_at) (List.rev batch)

(* The log's after-force hook.  Forces on this node are block-grained
   (they push the durable boundary to the device end), so an incidental
   force — WAL before a page ship, a checkpoint — makes every
   already-appended pending commit record durable as a side effect.
   Complete those now: the alternative (re-forcing later) would be a
   free no-op force, but the transactions would be reported pending
   even though a crash could no longer lose them — and a retry would
   then double-apply.  The batch's own force finds [pending] already
   empty. *)
let sweep t =
  match t.pending with
  | [] -> ()
  | _ ->
    let durable = Log_manager.durable_lsn t.log in
    let piggybacked, still = List.partition (fun p -> p.lsn < durable) t.pending in
    if not (List.is_empty piggybacked) then begin
      t.pending <- still;
      (match still with [] -> t.deadline <- infinity | _ -> ());
      if Env.tracing t.env then
        Env.emit t.env ~node:t.node Event.Commit_batch
          [ ("size", Event.Int (List.length piggybacked)); ("piggyback", Event.Bool true) ];
      complete t piggybacked
    end

let create env ~node log =
  let cfg = Env.config env in
  let t =
    {
      env;
      node;
      log;
      window = cfg.Config.group_commit_window_ms *. 1e-3;
      max_batch = max 1 cfg.Config.group_commit_max_batch;
      pending = [];
      deadline = infinity;
      before_force = (fun () -> ());
      on_durable = (fun ~txn:_ ~submitted_at:_ -> ());
      on_lost = (fun _ -> ());
    }
  in
  Log_manager.set_after_force log (fun () -> sweep t);
  t

let set_hooks t ?(on_lost = fun _ -> ()) ~before_force ~on_durable () =
  t.before_force <- before_force;
  t.on_durable <- on_durable;
  t.on_lost <- on_lost

let batching t = t.max_batch > 1
let pending_count t = List.length t.pending
let is_pending t ~txn = List.exists (fun p -> p.txn = txn) t.pending
let deadline t = match t.pending with [] -> None | _ -> Some t.deadline

let flush t =
  match t.pending with
  | [] -> ()
  | _ ->
    (* The crash-point hook fires with the batch still pending: an
       injected crash here loses the *whole* batch — no commit record
       was forced, so recovery must abort every member. *)
    t.before_force ();
    let batch = t.pending in
    t.pending <- [];
    t.deadline <- infinity;
    let n = List.length batch in
    let upto = List.fold_left (fun acc p -> Lsn.max acc p.lsn) Lsn.nil batch in
    Log_manager.force_shared t.log ~upto ~sharers:n;
    Env.observe t.env ~name:"commit_batch_size" ~node:t.node (float_of_int n);
    if Env.tracing t.env then Env.emit t.env ~node:t.node Event.Commit_batch [ ("size", Event.Int n) ];
    complete t batch

let submit t ~txn ~lsn =
  (match t.pending with
  | [] -> t.deadline <- Env.now t.env +. t.window
  | _ -> ());
  t.pending <- { txn; lsn; submitted_at = Env.now t.env } :: t.pending;
  if List.length t.pending >= t.max_batch then flush t

let tick t ~now = if (not (List.is_empty t.pending)) && now >= t.deadline then flush t

(* A crash loses the whole pending batch.  The loss hook fires with the
   dropped txn ids (oldest first) so the caller can report each one
   lost; it runs after the batch is cleared so a re-entrant flush cannot
   resurrect members. *)
let crash t =
  let lost = List.rev_map (fun p -> p.txn) t.pending in
  t.pending <- [];
  t.deadline <- infinity;
  if not (List.is_empty lost) then t.on_lost lost
