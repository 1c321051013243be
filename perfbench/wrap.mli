(** Engine wrappers.  {!Repro_workload.Engine.t} is a record of
    closures, so timing a layer needs no change to the library: each
    wrapper returns a copy of the record whose closures call the
    originals inside a timer.  The wrapped engine reads no simulated
    state and draws no randomness, so it produces a bit-identical run. *)

val traced : Spans.t -> Repro_workload.Engine.t -> Repro_workload.Engine.t
(** Every closure runs inside a {!Spans.span} of layer [Op _]. *)

type restart = { wall_s : float; sim_s : float }
(** One completed [recover] call: its wall-clock and simulated duration. *)

val timing_recover :
  (restart -> unit) -> Repro_workload.Engine.t -> Repro_workload.Engine.t
(** Reports every [recover] call that returns (one that raises is being
    retried by the driver and is not a restart). *)
