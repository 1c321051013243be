module Cluster = Repro_cbl.Cluster
module Node_state = Repro_cbl.Node_state
module Engine = Repro_workload.Engine

type built = {
  engine : Engine.t;
  cluster : Cluster.t;
  pages_by_owner : (int * Repro_storage.Page_id.t list) list;
}

let build ?(pool_capacity = 64) ~nodes ~owners ~pages_per_owner ~scheme ~name
    config =
  let cluster = Cluster.create ~pool_capacity ~scheme ~nodes config in
  let pages_by_owner =
    List.map (fun o -> (o, Cluster.allocate_pages cluster ~owner:o ~count:pages_per_owner)) owners
  in
  let engine = { (Engine.of_cluster cluster) with Engine.name } in
  { engine; cluster; pages_by_owner }

let cbl ?pool_capacity ~nodes ~owners ~pages_per_owner config =
  build ?pool_capacity ~nodes ~owners ~pages_per_owner ~scheme:Node_state.Local_logging
    ~name:"cbl" config

let server_logging ?pool_capacity ~nodes ~pages config =
  build ?pool_capacity ~nodes ~owners:[ 0 ] ~pages_per_owner:pages
    ~scheme:(Node_state.Server_logging { server = 0 })
    ~name:"server-logging" config

let pca ?pool_capacity ~nodes ~owners ~pages_per_owner config =
  build ?pool_capacity ~nodes ~owners ~pages_per_owner ~scheme:Node_state.Pca_double_logging
    ~name:"pca" config

let global_log ?pool_capacity ~nodes ~owners ~pages_per_owner config =
  build ?pool_capacity ~nodes ~owners ~pages_per_owner
    ~scheme:(Node_state.Global_log { log_node = 0 })
    ~name:"global-log" config

let all ?pool_capacity ~nodes ~pages_per_owner config =
  let owners = if nodes > 2 then [ 0; 2 ] else [ 0 ] in
  [
    cbl ?pool_capacity ~nodes ~owners ~pages_per_owner config;
    server_logging ?pool_capacity ~nodes
      ~pages:(pages_per_owner * List.length owners)
      config;
    pca ?pool_capacity ~nodes ~owners ~pages_per_owner config;
    global_log ?pool_capacity ~nodes ~owners ~pages_per_owner config;
  ]
