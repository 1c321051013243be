type t = {
  net_latency : float;
  net_per_byte : float;
  disk_seek : float;
  disk_per_byte : float;
  log_force_seek : float;
  cpu_per_log_record : float;
  cpu_per_lock_op : float;
  page_size : int;
  group_commit_window_ms : float;
  group_commit_max_batch : int;
  early_release : bool;
}

let default =
  {
    net_latency = 1.0e-3;
    net_per_byte = 0.8e-6 (* ~10 Mb/s *);
    disk_seek = 10.0e-3;
    disk_per_byte = 0.05e-6 (* ~20 MB/s transfer *);
    log_force_seek = 2.0e-3;
    cpu_per_log_record = 20.0e-6;
    cpu_per_lock_op = 5.0e-6;
    page_size = 8192;
    group_commit_window_ms = 0.;
    group_commit_max_batch = 1;
    early_release = false;
  }

let instant =
  {
    net_latency = 0.;
    net_per_byte = 0.;
    disk_seek = 0.;
    disk_per_byte = 0.;
    log_force_seek = 0.;
    cpu_per_log_record = 0.;
    cpu_per_lock_op = 0.;
    page_size = 512;
    group_commit_window_ms = 0.;
    group_commit_max_batch = 1;
    early_release = false;
  }

let with_net_latency t v = { t with net_latency = v }
let with_page_size t v = { t with page_size = v }

let with_group_commit t ~window_ms ~max_batch =
  { t with group_commit_window_ms = window_ms; group_commit_max_batch = max_batch }

let group_commit_enabled t = t.group_commit_max_batch > 1
let with_early_release t v = { t with early_release = v }
let early_release_enabled t = t.early_release && group_commit_enabled t

let to_json t =
  Repro_obs.Json.(
    Obj
      [
        ("net_latency", Float t.net_latency);
        ("net_per_byte", Float t.net_per_byte);
        ("disk_seek", Float t.disk_seek);
        ("disk_per_byte", Float t.disk_per_byte);
        ("log_force_seek", Float t.log_force_seek);
        ("cpu_per_log_record", Float t.cpu_per_log_record);
        ("cpu_per_lock_op", Float t.cpu_per_lock_op);
        ("page_size", Int t.page_size);
        ("group_commit_window_ms", Float t.group_commit_window_ms);
        ("group_commit_max_batch", Int t.group_commit_max_batch);
        ("early_release", Bool t.early_release);
      ])
