(** The benchmark's workloads.  Each is a closed loop: a fixed set of
    scripted clients, each transaction one script, admitted under a
    per-node multiprogramming cap, and every input drawn from the seed
    given on the command line.  Every run ends with restarts: the nodes
    in [restart] crash and recover one at a time, and the durability
    oracle then reads every committed cell back. *)

type t = {
  name : string;
  nodes : int;  (** every node owns a partition *)
  pages_per_node : int;
  pool_capacity : int;  (** buffer-pool frames per node *)
  config : Repro_sim.Config.t;
  mpl : int;  (** in-flight transactions per node *)
  scripts :
    Repro_util.Rng.t ->
    (int * Repro_storage.Page_id.t list) list ->
    Repro_workload.Op.script list;
  events : (int * Repro_workload.Driver.event) list;  (** crash/recover schedule by round *)
  restart : int list;  (** nodes crashed and recovered, one at a time, once the run ends *)
  warm : bool;  (** read every page once during setup, so the run starts cached *)
}

val all : t list
(** [scale-read], [commit-batch], [restart-load]. *)

val find : string -> t option

val cluster :
  ?trace:bool -> t -> seed:int -> Repro_cbl.Cluster.t * (int * Repro_storage.Page_id.t list) list
(** A fresh cluster with every partition allocated.  A traced cluster's
    event ring is large enough that no workload drops an event (a drop
    would change the metrics and fail the bit-identity check). *)

val scripts :
  t -> seed:int -> (int * Repro_storage.Page_id.t list) list -> Repro_workload.Op.script list
(** The seed's scripts over the given partitions. *)
