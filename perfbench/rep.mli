(** One repetition of a workload: set up, run, restart, verify.

    The same (workload, seed) always yields the same simulated run, in
    every mode; {!t.fingerprint} digests everything simulated so runs in
    different modes can be compared bit for bit. *)

type mode =
  | Plain  (** only [recover] is timed — the end-to-end run *)
  | Spans of Spans.t  (** every layer boundary is a wall-clock span *)
  | Recorder  (** the simulator's own event recorder is on; no wall spans *)

type gc = {
  minor_words : float;
  promoted_words : float;
  minor_collections : int;
  major_collections : int;
}

type t = {
  scripts : int;  (** scripts attempted *)
  setup_cluster_s : float;
  setup_scripts_s : float;
  run_s : float;  (** wall seconds inside [Driver.run] *)
  run_gc : gc;  (** allocation and collections inside [Driver.run] *)
  outcome : Repro_workload.Driver.outcome;
  run_metrics : Repro_sim.Metrics.t;  (** cluster counters of [Driver.run] alone *)
  metrics : Repro_sim.Metrics.t;  (** cluster counters at the end, restart and oracle included *)
  restarts : Wrap.restart list;  (** every completed [recover], oldest first *)
  recovery_phases : (string * float) list;
      (** simulated seconds per recovery phase, summed over the restarts *)
  errors : string list;
      (** stuck scripts, oracle mismatches, unconverged recoveries and
          commit-path messages; empty on a correct run *)
  fingerprint : string;  (** hex digest of every simulated output *)
  events : Repro_obs.Event.t list;  (** the recorded stream ([Recorder] mode only) *)
}

val run : mode -> Workloads.t -> seed:int -> t
