module Rng = Repro_util.Rng

type verdict = { drops : int; delay : float }
type torn = { keep : int; flip : int option }

type t = {
  plan : Fault_plan.t;
  rng : Rng.t;  (* the plan's own stream; never the simulation RNG *)
  mutable armed : bool;
  partitions : (int * int, int) Hashtbl.t;  (* normalized link -> probes left *)
  mutable crash_budget : int;
}

let create plan =
  {
    plan;
    rng = Rng.create plan.Fault_plan.seed;
    armed = true;
    partitions = Hashtbl.create 8;
    crash_budget = Fault_plan.budget plan.Fault_plan.crashpoints;
  }

let plan t = t.plan
let armed t = t.armed
let set_armed t armed = t.armed <- armed
let heal_partitions t = Hashtbl.reset t.partitions
let rto t = t.plan.Fault_plan.net.Fault_plan.rto

(* Per-message faults.  Drops model lost attempts that a bounded-retry
   sender pays for (bytes + RTO each) before the retransmission gets
   through — delivery always eventually happens, so protocol exchanges
   never fail halfway.  Disarmed, no randomness is
   consumed at all: an unfaulted run's RNG stream is untouched. *)
let on_message t ~src:_ ~dst:_ =
  if not t.armed then { drops = 0; delay = 0. }
  else begin
    let net = t.plan.Fault_plan.net in
    let drops =
      if net.Fault_plan.max_drops > 0 && Rng.chance t.rng net.Fault_plan.drop then
        1 + Rng.int t.rng net.Fault_plan.max_drops
      else 0
    in
    let delay =
      if net.Fault_plan.max_delay > 0. && Rng.chance t.rng net.Fault_plan.delay then
        Rng.float t.rng net.Fault_plan.max_delay
      else 0.
    in
    { drops; delay }
  end

let duplicate t = t.armed && Rng.chance t.rng t.plan.Fault_plan.net.Fault_plan.dup

(* Temporary partitions are decided at exchange *entry* points only (a
   blocked probe raises before any state on either side changes), keyed
   by the normalized pair so both directions agree.  A partition heals
   after absorbing a bounded number of probes — retries drain it, which
   keeps progress independent of simulated time (the stress harness
   runs with an all-zero cost model). *)
let link_key a b = if a < b then (a, b) else (b, a)

let link_up t ~a ~b =
  if not t.armed then true
  else begin
    let key = link_key a b in
    match Hashtbl.find_opt t.partitions key with
    | Some left ->
      if left <= 1 then Hashtbl.remove t.partitions key
      else Hashtbl.replace t.partitions key (left - 1);
      false
    | None ->
      let net = t.plan.Fault_plan.net in
      if net.Fault_plan.max_partition > 0 && Rng.chance t.rng net.Fault_plan.partition then begin
        Hashtbl.replace t.partitions key (1 + Rng.int t.rng net.Fault_plan.max_partition);
        false
      end
      else true
  end

(* Torn-write decision for a crash with [tail_len] unforced bytes.
   [first_framed] is the framed size of the first unforced record when
   it lies entirely within the tail.  Either the tear cuts strictly
   inside that record (short write) or the record survives whole with
   one payload byte flipped (CRC must reject it).  Both shapes
   guarantee no complete, valid record beyond the forced boundary is
   ever exposed — exposing e.g. an unforced Commit record would invent
   durability the node never promised. *)
let on_crash_tail t ~tail_len ~header ~first_framed =
  if (not t.armed) || tail_len <= 0 then None
  else if not (Rng.chance t.rng t.plan.Fault_plan.disk.Fault_plan.torn) then None
  else
    match first_framed with
    | Some framed
      when framed > header && Rng.chance t.rng t.plan.Fault_plan.disk.Fault_plan.corrupt ->
      Some { keep = framed; flip = Some (header + Rng.int t.rng (framed - header)) }
    | Some framed -> Some { keep = 1 + Rng.int t.rng (min tail_len (framed - 1)); flip = None }
    | None -> Some { keep = 1 + Rng.int t.rng tail_len; flip = None }

let crashpoint t point =
  if (not t.armed) || t.crash_budget <= 0 then false
  else begin
    let p = Fault_plan.prob t.plan.Fault_plan.crashpoints point in
    (* Zero-probability points must not consume randomness: recovery
       probes run on plans generated before the recovery class existed,
       and a wasted draw there would shift every later fault decision. *)
    if p <= 0. then false
    else if Rng.chance t.rng p then begin
      t.crash_budget <- t.crash_budget - 1;
      true
    end
    else false
  end
