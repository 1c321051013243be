(** Cost model for the simulated cluster.

    The paper's claims are about counts — messages on the commit path,
    forced I/Os, log records scanned at recovery — and about how those
    counts translate into latency and throughput on given hardware.  The
    simulator therefore charges every primitive action a configurable cost
    in simulated seconds; sweeping these knobs regenerates the latency /
    throughput experiments (E2, E3, E7).

    Defaults approximate mid-1990s hardware from the paper's era
    (10 Mb/s LAN, ~10 ms disk): the absolute numbers do not matter, only
    the ratios between schemes. *)

type t = {
  net_latency : float;  (** one-way message latency, seconds *)
  net_per_byte : float;  (** transmission cost per payload byte, seconds *)
  disk_seek : float;  (** positioning cost of a random page read/write *)
  disk_per_byte : float;  (** sequential transfer cost per byte *)
  log_force_seek : float;
      (** positioning cost of a log force; lower than [disk_seek]
          because the log head stays put between forces *)
  cpu_per_log_record : float;  (** CPU to build / apply one log record *)
  cpu_per_lock_op : float;  (** CPU of a lock table operation *)
  page_size : int;  (** bytes per database page *)
  group_commit_window_ms : float;
      (** group-commit batching window in *milliseconds* of simulated
          time: a batch leader waits at most this long for followers
          before forcing.  Ignored when [group_commit_max_batch <= 1]. *)
  group_commit_max_batch : int;
      (** maximum commits sharing one log force.  [1] (the default)
          disables group commit entirely — every commit forces alone,
          bit-identical to the pre-group-commit behaviour. *)
  early_release : bool;
      (** controlled lock violation: a committing transaction releases
          its page locks at batch-submit time instead of holding them
          across the group-commit window; readers/overwriters of those
          pages record commit dependencies on it.  [false] (the
          default) keeps the strict-2PL pipeline bit-identical to the
          pre-ELR behaviour.  Only meaningful when group commit is on
          (see {!early_release_enabled}). *)
}

val default : t
(** 1 ms one-way LAN latency, 10 ms disk seek, 2 ms log force, 8 KiB
    pages. *)

val instant : t
(** All costs zero — used by unit tests that only check behaviour, and by
    property tests where simulated time is irrelevant. *)

val with_net_latency : t -> float -> t
val with_page_size : t -> int -> t

val with_group_commit : t -> window_ms:float -> max_batch:int -> t
(** Set the group-commit knobs; [max_batch = 1] turns batching off. *)

val group_commit_enabled : t -> bool
(** [true] iff [group_commit_max_batch > 1]. *)

val with_early_release : t -> bool -> t
(** Toggle early lock release (controlled lock violation). *)

val early_release_enabled : t -> bool
(** [true] iff [early_release] is set AND group commit is on: without a
    batch window there is no lock-hold interval to shorten, and the
    single-force pipeline must stay bit-identical. *)

val to_json : t -> Repro_obs.Json.t
