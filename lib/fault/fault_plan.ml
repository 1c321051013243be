module Rng = Repro_util.Rng
module Json = Repro_obs.Json

type classes = { net : bool; disk : bool; crashpoints : bool; recovery : bool }

let no_classes = { net = false; disk = false; crashpoints = false; recovery = false }
let all_classes = { net = true; disk = true; crashpoints = true; recovery = true }

let classes_of_string s =
  let s = String.trim (String.lowercase_ascii s) in
  if String.equal s "" || String.equal s "none" then Ok no_classes
  else if String.equal s "all" then Ok all_classes
  else
    List.fold_left
      (fun acc part ->
        match acc with
        | Error _ as e -> e
        | Ok c -> (
          match part with
          | "net" -> Ok { c with net = true }
          | "disk" -> Ok { c with disk = true }
          | "crashpoints" | "crash" -> Ok { c with crashpoints = true }
          | "recovery" -> Ok { c with recovery = true }
          | other ->
            Error
              (Printf.sprintf
                 "unknown fault class %S (have: net, disk, crashpoints, recovery, all)" other)))
      (Ok no_classes)
      (List.filter
         (fun p -> not (String.equal p ""))
         (List.map String.trim (String.split_on_char ',' s)))

type net = {
  drop : float;  (* per-message chance an attempt is lost on the wire *)
  max_drops : int;  (* lost attempts before a retransmission gets through *)
  dup : float;  (* chance a delivered message arrives twice *)
  delay : float;  (* chance a message sits in a queue (bounded reorder) *)
  max_delay : float;  (* bound (seconds) on the extra queueing *)
  rto : float;  (* retransmission timeout charged per lost attempt *)
  partition : float;  (* chance a link probe finds the link partitioned *)
  max_partition : int;  (* probes a partition absorbs before healing *)
}

type disk = {
  torn : float;  (* chance a crash tears the unforced log tail *)
  corrupt : float;  (* given torn: bit-flip a whole record vs short write *)
}

(* The protocol windows a node can crash in.  Each has a slot in the
   plan's probability table ([point_index]) and a name ([point_name]):
   both are exhaustive matches, so a new point does not compile until
   it has the two. *)
type point =
  | Commit_force  (* commit record appended, force not yet issued *)
  | Checkpoint  (* checkpoint forced, master record not yet updated *)
  | Page_ship  (* dirty page copy about to leave the node *)
  | Rollback  (* between two undo steps of an abort *)
  | Recovery_analysis  (* restart: analysis done, redo not started *)
  | Recovery_redo  (* restart: probed every K applied redo records *)
  | Recovery_pre_undo  (* restart: redo complete, undo not started *)
  | Recovery_undo  (* restart: between two loser rollbacks *)
  | Recovery_checkpoint  (* restart: before the end-of-restart checkpoint *)

let points =
  [
    Commit_force;
    Checkpoint;
    Page_ship;
    Rollback;
    Recovery_analysis;
    Recovery_redo;
    Recovery_pre_undo;
    Recovery_undo;
    Recovery_checkpoint;
  ]

let point_index = function
  | Commit_force -> 0
  | Checkpoint -> 1
  | Page_ship -> 2
  | Rollback -> 3
  | Recovery_analysis -> 4
  | Recovery_redo -> 5
  | Recovery_pre_undo -> 6
  | Recovery_undo -> 7
  | Recovery_checkpoint -> 8

let point_name = function
  | Commit_force -> "commit-force"
  | Checkpoint -> "checkpoint"
  | Page_ship -> "page-ship"
  | Rollback -> "rollback"
  | Recovery_analysis -> "recovery-analysis"
  | Recovery_redo -> "recovery-redo"
  | Recovery_pre_undo -> "recovery-pre-undo"
  | Recovery_undo -> "recovery-undo"
  | Recovery_checkpoint -> "recovery-checkpoint"

(* [(restart, lo, span)]: whether the point lies inside restart (the
   recovery class) and the range [lo, lo + span) [generate] draws its
   probability from. *)
let draw_range = function
  | Commit_force -> (false, 0.002, 0.008)
  | Checkpoint -> (false, 0.05, 0.20)
  | Page_ship -> (false, 0.001, 0.004)
  | Rollback -> (false, 0.002, 0.010)
  | Recovery_analysis -> (true, 0.10, 0.25)
  | Recovery_redo -> (true, 0.01, 0.04)
  | Recovery_pre_undo -> (true, 0.05, 0.15)
  | Recovery_undo -> (true, 0.05, 0.15)
  | Recovery_checkpoint -> (true, 0.05, 0.15)

let in_restart p =
  let restart, _, _ = draw_range p in
  restart

type crashpoints = {
  budget : int;  (* total injected crashes allowed per run *)
  probs : float array;  (* per-probe crash chance, indexed by [point_index] *)
}

let crashpoints ~budget set =
  let probs = Array.make (List.length points) 0. in
  List.iter (fun (p, x) -> probs.(point_index p) <- x) set;
  { budget; probs }

let budget c = c.budget
let prob c p = c.probs.(point_index p)

type t = { seed : int; net : net; disk : disk; crashpoints : crashpoints }

let quiet_net =
  {
    drop = 0.;
    max_drops = 0;
    dup = 0.;
    delay = 0.;
    max_delay = 0.;
    rto = 0.;
    partition = 0.;
    max_partition = 0;
  }

let quiet_disk = { torn = 0.; corrupt = 0. }

let quiet_crashpoints = crashpoints ~budget:0 []
let none = { seed = 0; net = quiet_net; disk = quiet_disk; crashpoints = quiet_crashpoints }

(* Draw a plan's magnitudes from [rng].  The plan carries its own seed:
   the injector replays bit-identically from the plan alone, whether the
   plan was generated here or loaded from JSON. *)
let generate rng ~classes =
  let ({ net = want_net; disk = want_disk; crashpoints = want_crashpoints; recovery = want_recovery }
        : classes) =
    classes
  in
  let seed = Rng.int rng 0x3FFFFFFF in
  let net =
    if not want_net then quiet_net
    else
      {
        drop = 0.01 +. Rng.float rng 0.10;
        max_drops = 1 + Rng.int rng 3;
        dup = 0.01 +. Rng.float rng 0.08;
        delay = 0.02 +. Rng.float rng 0.10;
        max_delay = 0.001 +. Rng.float rng 0.01;
        rto = 0.002 +. Rng.float rng 0.008;
        partition = 0.002 +. Rng.float rng 0.010;
        max_partition = 4 + Rng.int rng 28;
      }
  in
  let disk =
    if not want_disk then quiet_disk
    else { torn = 0.4 +. Rng.float rng 0.5; corrupt = Rng.float rng 1.0 }
  in
  (* Each class draws its points' probabilities in reverse declaration
     order, the crash class after its budget and the recovery class
     before its own: every historical faulted seed depends on this
     order.  The recovery class draws after every other class, so a
     plan generated without it consumes the stream older versions
     consumed. *)
  let probs = Array.make (List.length points) 0. in
  let draw ~restart =
    List.iter
      (fun p ->
        let r, lo, span = draw_range p in
        if Bool.equal r restart then probs.(point_index p) <- lo +. Rng.float rng span)
      (List.rev points)
  in
  let budget =
    if not want_crashpoints then 0
    else begin
      let budget = 1 + Rng.int rng 3 in
      draw ~restart:false;
      budget
    end
  in
  let budget =
    if not want_recovery then budget
    else begin
      draw ~restart:true;
      if want_crashpoints then budget else 1 + Rng.int rng 3
    end
  in
  { seed; net; disk; crashpoints = { budget; probs } }

(* ---- JSON (dump / replay) ---- *)

(* "commit_force" for [Commit_force]: the keys plans have always been
   dumped under. *)
let json_key p = String.map (function '-' -> '_' | c -> c) (point_name p)

let to_json t =
  Json.Obj
    [
      ("seed", Json.Int t.seed);
      ( "net",
        Json.Obj
          [
            ("drop", Json.Float t.net.drop);
            ("max_drops", Json.Int t.net.max_drops);
            ("dup", Json.Float t.net.dup);
            ("delay", Json.Float t.net.delay);
            ("max_delay", Json.Float t.net.max_delay);
            ("rto", Json.Float t.net.rto);
            ("partition", Json.Float t.net.partition);
            ("max_partition", Json.Int t.net.max_partition);
          ] );
      ( "disk",
        Json.Obj [ ("torn", Json.Float t.disk.torn); ("corrupt", Json.Float t.disk.corrupt) ] );
      ( "crashpoints",
        Json.Obj
          (List.map (fun p -> (json_key p, Json.Float (prob t.crashpoints p))) points
          @ [ ("budget", Json.Int t.crashpoints.budget) ]) );
    ]

let fnum j name ~default =
  match Json.member name j with
  | Some v -> (
    match Json.to_float_opt v with
    | Some f -> f
    | None -> ( match Json.to_int_opt v with Some i -> float_of_int i | None -> default))
  | None -> default

let inum j name ~default =
  match Option.bind (Json.member name j) Json.to_int_opt with Some v -> v | None -> default

let of_json j =
  let seed = inum j "seed" ~default:0 in
  let net =
    match Json.member "net" j with
    | None -> quiet_net
    | Some n ->
      {
        drop = fnum n "drop" ~default:0.;
        max_drops = inum n "max_drops" ~default:0;
        dup = fnum n "dup" ~default:0.;
        delay = fnum n "delay" ~default:0.;
        max_delay = fnum n "max_delay" ~default:0.;
        rto = fnum n "rto" ~default:0.;
        partition = fnum n "partition" ~default:0.;
        max_partition = inum n "max_partition" ~default:0;
      }
  in
  let disk =
    match Json.member "disk" j with
    | None -> quiet_disk
    | Some d -> { torn = fnum d "torn" ~default:0.; corrupt = fnum d "corrupt" ~default:0. }
  in
  let crashpoints =
    match Json.member "crashpoints" j with
    | None -> quiet_crashpoints
    | Some c ->
      crashpoints ~budget:(inum c "budget" ~default:0)
        (List.map (fun p -> (p, fnum c (json_key p) ~default:0.)) points)
  in
  { seed; net; disk; crashpoints }
