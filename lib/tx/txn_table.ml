type t = { table : (int, Txn.t) Hashtbl.t }

let create () = { table = Hashtbl.create 32 }
let register t txn = Hashtbl.replace t.table txn.Txn.id txn
let find t id = Hashtbl.find_opt t.table id

let find_exn t id =
  match find t id with
  | Some txn -> txn
  | None -> invalid_arg (Printf.sprintf "Txn_table: unknown transaction %d" id)

let active t =
  Hashtbl.fold (fun _ txn acc -> if Txn.is_active txn then txn :: acc else acc) t.table []

let live t =
  Hashtbl.fold
    (fun _ (txn : Txn.t) acc ->
      match txn.Txn.state with
      | Txn.Active | Txn.Committing -> txn :: acc
      | Txn.Committed | Txn.Aborted -> acc)
    t.table []

let remove t id = Hashtbl.remove t.table id

let snapshot_active t =
  List.map (fun (txn : Txn.t) -> { Repro_wal.Record.txn = txn.id; last_lsn = txn.last_lsn })
    (active t)

let clear t = Hashtbl.reset t.table
