(** Engine handle: the uniform interface the driver and benches use.

    The CBL cluster and every baseline expose one of these, so a single
    driver runs the same workload over each scheme and the per-scheme
    metric counters become directly comparable rows of the experiment
    tables.  All transactional operations may raise
    {!Repro_cbl.Block.Would_block}. *)

open Repro_storage

type t = {
  name : string;
  begin_txn : node:int -> int;
  read_cell : txn:int -> pid:Page_id.t -> off:int -> int64;
  update_delta : txn:int -> pid:Page_id.t -> off:int -> int64 -> unit;
  update_bytes : txn:int -> pid:Page_id.t -> off:int -> string -> unit;
  savepoint : txn:int -> string -> unit;
  rollback_to : txn:int -> string -> unit;
  commit : txn:int -> unit;
  commit_outcome : txn:int -> [ `Pending | `Durable | `Gone ];
      (** Group commit: where a submitted commit stands.  [`Durable] is
          read-once; without batching every commit answers [`Durable]
          exactly once right after [commit] returns. *)
  pump_commits : idle:bool -> bool;
      (** Drive the group-commit window timers; [idle] means no client
          made progress this round, allowing a clock jump to the next
          batch deadline.  Returns whether any batch moved. *)
  abort : txn:int -> unit;
  checkpoint : node:int -> unit;
  crash : node:int -> unit;
  recover : nodes:int list -> unit;
  is_up : node:int -> bool;
  nodes : int list;  (** all node ids, for health scans (fault injection) *)
  env : Repro_sim.Env.t;
}

val of_cluster : Repro_cbl.Cluster.t -> t
(** The paper's system. *)
