module Lsn = Repro_wal.Lsn

type state = Active | Committing | Committed | Aborted

type t = {
  id : int;
  node : int;
  mutable state : state;
  mutable last_lsn : Lsn.t;
  mutable first_lsn : Lsn.t;
  mutable savepoints : (string * Lsn.t) list;
  mutable logged_records : int;
  mutable logged_bytes : int;
  mutable remote_updated : Repro_storage.Page_id.Set.t;
  mutable began : float;
  mutable locks_from : float;
  mutable antecedents : int list;
}

let make ~id ~node =
  {
    id;
    node;
    state = Active;
    last_lsn = Lsn.nil;
    first_lsn = Lsn.nil;
    savepoints = [];
    logged_records = 0;
    logged_bytes = 0;
    remote_updated = Repro_storage.Page_id.Set.empty;
    began = 0.;
    locks_from = -1.;
    antecedents = [];
  }
let is_active t = match t.state with Active -> true | Committing | Committed | Aborted -> false
let record_logged t lsn =
  t.last_lsn <- lsn;
  if Lsn.is_nil t.first_lsn then t.first_lsn <- lsn
let add_savepoint t name lsn = t.savepoints <- (name, lsn) :: t.savepoints
let savepoint_lsn t name = List.assoc_opt name t.savepoints

let release_savepoints_after t lsn =
  t.savepoints <- List.filter (fun (_, sp) -> Lsn.compare sp lsn <= 0) t.savepoints
