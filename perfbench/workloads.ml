module Config = Repro_sim.Config
module Cluster = Repro_cbl.Cluster
module Driver = Repro_workload.Driver
module Generators = Repro_workload.Generators
module Scale = Repro_workload.Scale
module Rng = Repro_util.Rng

type t = {
  name : string;
  nodes : int;
  pages_per_node : int;
  pool_capacity : int;
  config : Config.t;
  mpl : int;
  scripts :
    Rng.t -> (int * Repro_storage.Page_id.t list) list -> Repro_workload.Op.script list;
  events : (int * Driver.event) list;
  restart : int list;
  warm : bool;
}

(* Round-robin merge, so clients of one node start in step. *)
let interleave lists =
  let rec go acc lists =
    let heads = List.filter_map (function x :: _ -> Some x | [] -> None) lists in
    let tails = List.filter_map (function _ :: t -> Some t | [] -> None) lists in
    if heads = [] then List.rev acc else go (List.rev_append heads acc) tails
  in
  go [] lists

(* 64 owners, 8 read-mostly clients each; 256 pages per node against a
   64-frame pool, so most reads miss and a fifth cross nodes.  Eight
   nodes restart afterwards, one at a time. *)
let scale_read =
  let profile = Option.get (Scale.find "read-heavy") in
  {
    name = "scale-read";
    nodes = 64;
    pages_per_node = 256;
    pool_capacity = 64;
    config = Config.with_page_size Config.default 1024;
    mpl = 8;
    scripts =
      (fun rng pages_by_owner ->
        Scale.scripts (Rng.split rng) profile ~pages_by_owner ~clients:512 ~txns_per_client:4);
    events = [];
    restart = List.init 8 Fun.id;
    warm = false;
  }

(* One node, 8 update-only clients on disjoint 4-page slices: no
   messages, no evictions — only the commit path, with group commit
   sharing each force across up to 8 commits.  Transaction sizes are
   drawn from 2-6 updates (mean 4), so the seed moves the log volume and
   with it every simulated time.  Uneven sizes let a client's next
   transaction start before its last one is durable and wait on its
   locks; aborts stay rare. *)
let commit_batch =
  let clients = 8 and slice = 4 in
  {
    name = "commit-batch";
    nodes = 1;
    pages_per_node = clients * slice;
    pool_capacity = 64;
    config = Config.with_group_commit Config.default ~window_ms:20. ~max_batch:8;
    mpl = clients;
    scripts =
      (fun rng pages_by_owner ->
        let pages = List.assoc 0 pages_by_owner in
        interleave
          (List.init clients (fun c ->
               let pages = List.filteri (fun i _ -> i / slice = c) pages in
               List.concat
                 (List.init 150 (fun _ ->
                      Generators.hotspot rng ~pages ~clients:[ 0 ] ~txns_per_client:1
                        ~mix:
                          {
                            Generators.default_mix with
                            update_fraction = 1.0;
                            ops_per_txn = 2 + Rng.int rng 5;
                            remote_fraction = 0.;
                          })))));
    events = [];
    restart = [ 0 ];
    warm = true;
  }

(* Four owners under a partitioned, update-heavy mix while one node at a
   time crashes and recovers in rotation.  No checkpoints, so every
   restart scans its whole log. *)
let restart_nodes = 4
let restart_period = 80
let restart_downtime = 10

let restart_load =
  {
    name = "restart-load";
    nodes = restart_nodes;
    pages_per_node = 64;
    pool_capacity = 64;
    config = Config.default;
    mpl = 4;
    scripts =
      (fun rng pages_by_owner ->
        Generators.partitioned rng ~pages_by_owner
          ~clients:(List.init 16 (fun i -> i mod restart_nodes))
          ~txns_per_client:70
          ~mix:{ Generators.default_mix with update_fraction = 0.8; remote_fraction = 0.3 });
    events =
      List.concat
        (List.init 200 (fun i ->
             let node = i mod restart_nodes and at = restart_period * (i + 1) in
             [ (at, Driver.Crash node); (at + restart_downtime, Driver.Recover [ node ]) ]));
    restart = [ 0 ];
    warm = false;
  }

let all = [ scale_read; commit_batch; restart_load ]
let find name = List.find_opt (fun w -> w.name = name) all
let trace_capacity = 1 lsl 21

(* One transaction per owner reads each of its pages once, so a run that
   fits in the pool starts with every page cached. *)
let warm_up c ~node pages =
  let txn = Cluster.begin_txn c ~node in
  List.iter (fun pid -> ignore (Cluster.read_cell c ~txn ~pid ~off:0)) pages;
  Cluster.commit c ~txn;
  while Cluster.commit_outcome c ~txn = `Pending do
    ignore (Cluster.pump_group_commit c ~idle:true)
  done

let cluster ?(trace = false) w ~seed =
  (* the ring is allocated up front, so only a traced cluster gets one
     this large *)
  let trace_capacity = if trace then Some trace_capacity else None in
  let c =
    Cluster.create ~trace ?trace_capacity ~seed ~pool_capacity:w.pool_capacity ~nodes:w.nodes
      w.config
  in
  let pages_by_owner =
    List.init w.nodes (fun o -> (o, Cluster.allocate_pages c ~owner:o ~count:w.pages_per_node))
  in
  if w.warm then List.iter (fun (node, pages) -> warm_up c ~node pages) pages_by_owner;
  (c, pages_by_owner)

let scripts w ~seed pages_by_owner = w.scripts (Rng.create seed) pages_by_owner
