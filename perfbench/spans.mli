(** Wall-clock spans taken from outside the simulator.

    The benchmark times each call it makes into a layer — the setup
    functions, {!Repro_workload.Driver.run} and {!Repro_workload.Driver.verify},
    and every closure of the {!Repro_workload.Engine.t} record — and keeps
    one span per call in flat arrays: layer, parent span, start, stop,
    minor words allocated and how the call ended.  Nothing is written
    until the run is over.  The clock is the benchmark's own monotonic
    clock; the simulator's code never reads it. *)

val now : unit -> float
(** Monotonic wall-clock seconds (arbitrary origin). *)

type op =
  | Begin
  | Read
  | Update
  | Update_bytes
  | Savepoint
  | Rollback_to
  | Commit
  | Outcome
  | Pump
  | Abort
  | Checkpoint
  | Crash
  | Recover
  | Is_up

type layer =
  | Setup_cluster  (** [Cluster.create] + [allocate_pages] *)
  | Setup_scripts  (** [Scale.scripts] / [Generators.*] *)
  | Driver_run
  | Driver_verify
  | Op of op  (** one closure of the engine record *)

val layers : layer list
(** Every layer, in reporting order. *)

val layer_name : layer -> string
(** ["setup.cluster"], ["driver.run"], ["cluster.read"], … *)

val op_name : op -> string
(** ["read"], ["is_up"], … — the [<op>] of [cluster.<op>]. *)

val reason_names : string list
(** One per {!Repro_cbl.Block.reason} constructor, in declaration order:
    ["lock_conflict"; "node_down"; …]. *)

type t

val create : unit -> t

val clear : t -> unit
(** Drops every span; the store keeps its capacity. *)

val span : t -> layer -> (unit -> 'a) -> 'a
(** [span t layer f] runs [f] inside a new span whose parent is the
    innermost open one.  An exception ends the span and is re-raised; a
    [Would_block] is recorded with its reason. *)

type stats = {
  calls : int;
  blocked : int;  (** calls that raised [Would_block] *)
  by_reason : int array;  (** blocked calls per reason, indexed like {!reason_names} *)
  total_s : float;  (** summed span durations *)
  self_s : float;  (** [total_s] minus the time covered by child spans *)
  minor_words : float;  (** minor-heap words allocated inside the spans *)
  durations : float array;  (** per-call seconds, sorted ascending *)
}

val summarize : t -> layer -> stats

val quantile : float array -> float -> float
(** Nearest-rank quantile of a sorted array; [0.] when empty. *)

val write_tsv : t -> string -> unit
(** One line per span: id, parent, layer, start and stop in microseconds
    from the first span, minor words, outcome ([ok], a block reason, or
    [exn]). *)
