open Repro_storage
module Cluster = Repro_cbl.Cluster

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
      (* group commit: where a submitted commit stands.  [`Durable] is
         read-once; engines without batching answer [`Durable] exactly
         once right after [commit] returns. *)
  pump_commits : idle:bool -> bool;
      (* drive the group-commit window timers; [idle] = no client made
         progress this round, allowing a clock jump to the next batch
         deadline.  Returns whether any batch moved. *)
  abort : txn:int -> unit;
  checkpoint : node:int -> unit;
  crash : node:int -> unit;
  recover : nodes:int list -> unit;
  is_up : node:int -> bool;
  nodes : int list;
  env : Repro_sim.Env.t;
}

let of_cluster cluster =
  {
    name = "cbl";
    nodes = List.init (Cluster.node_count cluster) Fun.id;
    begin_txn = (fun ~node -> Cluster.begin_txn cluster ~node);
    read_cell = (fun ~txn ~pid ~off -> Cluster.read_cell cluster ~txn ~pid ~off);
    update_delta = (fun ~txn ~pid ~off d -> Cluster.update_delta cluster ~txn ~pid ~off d);
    update_bytes = (fun ~txn ~pid ~off s -> Cluster.update_bytes cluster ~txn ~pid ~off s);
    savepoint = (fun ~txn name -> Cluster.savepoint cluster ~txn name);
    rollback_to = (fun ~txn name -> Cluster.rollback_to cluster ~txn name);
    commit = (fun ~txn -> Cluster.commit cluster ~txn);
    commit_outcome = (fun ~txn -> Cluster.commit_outcome cluster ~txn);
    pump_commits = (fun ~idle -> Cluster.pump_group_commit cluster ~idle);
    abort = (fun ~txn -> Cluster.abort cluster ~txn);
    checkpoint = (fun ~node -> Cluster.checkpoint cluster ~node);
    crash = (fun ~node -> Cluster.crash cluster ~node);
    recover = (fun ~nodes -> Cluster.recover cluster ~nodes);
    is_up = (fun ~node -> Repro_cbl.Node.is_up (Cluster.node cluster node));
    env = Cluster.env cluster;
  }
