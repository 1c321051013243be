(** Named, seed-deterministic workload profiles for big-cluster runs.

    {!Generators} hand-shapes small workloads; this layer scales named
    mixes to hundreds of nodes and thousands of clients (E14 and
    [cblsim scale]).  A (profile, seed, shape) triple fully determines
    the generated scripts: all randomness comes from the caller's RNG,
    so hand in a {!Repro_util.Rng.split} substream and historical
    streams are untouched. *)

type txn_size =
  | Fixed of int  (** every transaction runs exactly this many ops *)
  | Uniform of int * int  (** inclusive bounds *)
  | Geometric of { mean : int; cap : int }
      (** long-tailed: trials-to-success at probability [1/mean],
          truncated at [cap] *)

type profile = {
  name : string;
  description : string;
  theta : float;  (** Zipf skew over pages inside a partition *)
  owner_theta : float;
      (** Zipf skew over partitions for remote accesses — [0.] spreads
          remote traffic evenly, higher values concentrate it on a few
          hot owner nodes *)
  update_fraction : float;
  remote_fraction : float;
  txn_size : txn_size;
}

val presets : profile list
(** [uniform], [zipf-hot], [hot-owner], [read-heavy], [write-heavy],
    [mixed-geometric]. *)

val names : unit -> string list
val find : string -> profile option

val ops_per_txn : Repro_util.Rng.t -> txn_size -> int
(** Draw one transaction's op count (always at least 1). *)

val scripts :
  Repro_util.Rng.t ->
  profile ->
  pages_by_owner:(int * Repro_storage.Page_id.t list) list ->
  clients:int ->
  txns_per_client:int ->
  Op.script list
(** [clients] scripted clients, each homed at partition
    [client mod partitions] (its scripts run at that partition's owner
    node); remote accesses pick a partition from the [owner_theta] Zipf,
    pages inside a partition from the [theta] Zipf. *)
