(** A seed-deterministic fault plan.

    The plan is pure data: per-class probabilities and bounds plus the
    injector's own RNG seed.  A plan replays bit-identically — building
    an {!Injector} from an equal plan and running the identical workload
    yields the identical fault schedule, which is what makes a dumped
    plan ([to_json] / [of_json]) a complete repro artefact. *)

type classes = { net : bool; disk : bool; crashpoints : bool; recovery : bool }

val no_classes : classes
val all_classes : classes

val classes_of_string : string -> (classes, string) result
(** Parses ["net,disk,crashpoints,recovery"], ["all"], ["none"] or [""]. *)

type net = {
  drop : float;
  max_drops : int;
  dup : float;
  delay : float;
  max_delay : float;
  rto : float;
  partition : float;
  max_partition : int;
}

type disk = { torn : float; corrupt : float }

(** {1 Crash points} *)

(** The protocol windows a node can crash in. *)
type point =
  | Commit_force  (** commit record appended, force not yet issued *)
  | Checkpoint  (** checkpoint forced, master record not yet updated *)
  | Page_ship  (** dirty page copy about to leave the node *)
  | Rollback  (** between two undo steps of an abort *)
  | Recovery_analysis  (** restart: analysis done, redo not started *)
  | Recovery_redo  (** restart: probed every K applied redo records *)
  | Recovery_pre_undo  (** restart: redo complete, undo not started *)
  | Recovery_undo  (** restart: between two loser rollbacks *)
  | Recovery_checkpoint  (** restart: before the end-of-restart checkpoint *)

val points : point list
(** Every point, in declaration order. *)

val point_name : point -> string
(** ["commit-force"], …: the [point] attribute of [fault.crash] events.
    With ['-'] read as ['_'] it is also the point's key in {!to_json}. *)

val in_restart : point -> bool
(** The point lies inside restart: it belongs to the [recovery] class. *)

type crashpoints
(** The crash budget (total injected crashes allowed per run) and one
    per-probe crash probability for each point. *)

val crashpoints : budget:int -> (point * float) list -> crashpoints
(** Points left out of the list get probability zero. *)

val budget : crashpoints -> int

val prob : crashpoints -> point -> float
(** The chance the point crashes the node each time it is probed. *)

type t = { seed : int; net : net; disk : disk; crashpoints : crashpoints }

val none : t
(** All probabilities zero: an injector built from it never fires. *)

val generate : Repro_util.Rng.t -> classes:classes -> t
(** Draw magnitudes for the enabled classes; disabled classes stay
    quiet (zero probabilities). *)

val to_json : t -> Repro_obs.Json.t
val of_json : Repro_obs.Json.t -> t
