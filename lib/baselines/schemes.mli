(** Ready-made engines for the paper's §3 comparators.

    Each constructor builds a cluster running one of the baseline
    logging architectures over the {e identical} cache / lock /
    page-transfer substrate as the CBL cluster, so counter differences
    between engines isolate the logging architecture — the whole point
    of experiments E1-E3 and E10.

    Baselines support normal processing only; crash recovery is the
    subject of E4/E8 and is compared against
    {!Repro_cbl.Recovery.Merged_logs} on CBL clusters instead. *)

type built = {
  engine : Repro_workload.Engine.t;
  cluster : Repro_cbl.Cluster.t;
  pages_by_owner : (int * Repro_storage.Page_id.t list) list;
}

val cbl :
  ?seed:int ->
  ?pool_capacity:int ->
  nodes:int ->
  owners:int list ->
  pages_per_owner:int ->
  Repro_sim.Config.t ->
  built
(** The paper's system (for symmetric comparison runs). *)

val server_logging :
  ?seed:int ->
  ?pool_capacity:int ->
  nodes:int ->
  pages:int ->
  Repro_sim.Config.t ->
  built
(** ARIES/CSA-flavoured client-server: node 0 is the server, owns every
    page and the only durable log; clients ship their records at
    commit. *)

val all :
  ?seed:int ->
  ?pool_capacity:int ->
  nodes:int ->
  pages_per_owner:int ->
  Repro_sim.Config.t ->
  built list
(** One of each, comparably configured: CBL / PCA / global-log clusters
    with owners [0] and [2 mod nodes]; server-logging with everything at
    node 0.  Used by the E1-E3 sweeps. *)
