type t = {
  mutable node : int;
  mutable messages_sent : int;
  mutable message_bytes : int;
  mutable commit_messages : int;
  mutable log_appends : int;
  mutable log_bytes : int;
  mutable log_forces : int;
  mutable log_records_shipped : int;
  mutable page_disk_reads : int;
  mutable page_disk_writes : int;
  mutable commit_page_writes : int;
  mutable pages_shipped : int;
  mutable callbacks_sent : int;
  mutable lock_requests_remote : int;
  mutable lock_requests_local : int;
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable txn_committed : int;
  mutable txn_aborted : int;
  mutable commit_batches : int;
  mutable batched_commits : int;
  mutable recovery_log_records_scanned : int;
  mutable recovery_pages_redone : int;
  mutable recovery_messages : int;
  mutable recovery_page_transfers : int;
  mutable recovery_restarts : int;
  mutable recovery_retries : int;
  mutable checkpoints_taken : int;
  mutable log_space_stalls : int;
  mutable flush_requests : int;
  mutable net_msgs_dropped : int;
  mutable net_msgs_duplicated : int;
  mutable net_msgs_delayed : int;
  mutable net_link_blocks : int;
  mutable torn_crashes : int;
  mutable torn_bytes_discarded : int;
  mutable injected_crashes : int;
  mutable busy_seconds : float;
}

let create ?(node = -1) () =
  {
    node;
    messages_sent = 0;
    message_bytes = 0;
    commit_messages = 0;
    log_appends = 0;
    log_bytes = 0;
    log_forces = 0;
    log_records_shipped = 0;
    page_disk_reads = 0;
    page_disk_writes = 0;
    commit_page_writes = 0;
    pages_shipped = 0;
    callbacks_sent = 0;
    lock_requests_remote = 0;
    lock_requests_local = 0;
    cache_hits = 0;
    cache_misses = 0;
    txn_committed = 0;
    txn_aborted = 0;
    commit_batches = 0;
    batched_commits = 0;
    recovery_log_records_scanned = 0;
    recovery_pages_redone = 0;
    recovery_messages = 0;
    recovery_page_transfers = 0;
    recovery_restarts = 0;
    recovery_retries = 0;
    checkpoints_taken = 0;
    log_space_stalls = 0;
    flush_requests = 0;
    net_msgs_dropped = 0;
    net_msgs_duplicated = 0;
    net_msgs_delayed = 0;
    net_link_blocks = 0;
    torn_crashes = 0;
    torn_bytes_discarded = 0;
    injected_crashes = 0;
    busy_seconds = 0.;
  }

let fields =
  [
    ("messages_sent", (fun t -> t.messages_sent), fun t v -> t.messages_sent <- v);
    ("message_bytes", (fun t -> t.message_bytes), fun t v -> t.message_bytes <- v);
    ("commit_messages", (fun t -> t.commit_messages), fun t v -> t.commit_messages <- v);
    ("log_appends", (fun t -> t.log_appends), fun t v -> t.log_appends <- v);
    ("log_bytes", (fun t -> t.log_bytes), fun t v -> t.log_bytes <- v);
    ("log_forces", (fun t -> t.log_forces), fun t v -> t.log_forces <- v);
    ( "log_records_shipped",
      (fun t -> t.log_records_shipped),
      fun t v -> t.log_records_shipped <- v );
    ("page_disk_reads", (fun t -> t.page_disk_reads), fun t v -> t.page_disk_reads <- v);
    ("page_disk_writes", (fun t -> t.page_disk_writes), fun t v -> t.page_disk_writes <- v);
    ("commit_page_writes", (fun t -> t.commit_page_writes), fun t v -> t.commit_page_writes <- v);
    ("pages_shipped", (fun t -> t.pages_shipped), fun t v -> t.pages_shipped <- v);
    ("callbacks_sent", (fun t -> t.callbacks_sent), fun t v -> t.callbacks_sent <- v);
    ( "lock_requests_remote",
      (fun t -> t.lock_requests_remote),
      fun t v -> t.lock_requests_remote <- v );
    ( "lock_requests_local",
      (fun t -> t.lock_requests_local),
      fun t v -> t.lock_requests_local <- v );
    ("cache_hits", (fun t -> t.cache_hits), fun t v -> t.cache_hits <- v);
    ("cache_misses", (fun t -> t.cache_misses), fun t v -> t.cache_misses <- v);
    ("txn_committed", (fun t -> t.txn_committed), fun t v -> t.txn_committed <- v);
    ("txn_aborted", (fun t -> t.txn_aborted), fun t v -> t.txn_aborted <- v);
    ("commit_batches", (fun t -> t.commit_batches), fun t v -> t.commit_batches <- v);
    ("batched_commits", (fun t -> t.batched_commits), fun t v -> t.batched_commits <- v);
    ( "recovery_log_records_scanned",
      (fun t -> t.recovery_log_records_scanned),
      fun t v -> t.recovery_log_records_scanned <- v );
    ( "recovery_pages_redone",
      (fun t -> t.recovery_pages_redone),
      fun t v -> t.recovery_pages_redone <- v );
    ("recovery_messages", (fun t -> t.recovery_messages), fun t v -> t.recovery_messages <- v);
    ( "recovery_page_transfers",
      (fun t -> t.recovery_page_transfers),
      fun t v -> t.recovery_page_transfers <- v );
    ("recovery_restarts", (fun t -> t.recovery_restarts), fun t v -> t.recovery_restarts <- v);
    ("recovery_retries", (fun t -> t.recovery_retries), fun t v -> t.recovery_retries <- v);
    ("checkpoints_taken", (fun t -> t.checkpoints_taken), fun t v -> t.checkpoints_taken <- v);
    ("log_space_stalls", (fun t -> t.log_space_stalls), fun t v -> t.log_space_stalls <- v);
    ("flush_requests", (fun t -> t.flush_requests), fun t v -> t.flush_requests <- v);
    ("net_msgs_dropped", (fun t -> t.net_msgs_dropped), fun t v -> t.net_msgs_dropped <- v);
    ( "net_msgs_duplicated",
      (fun t -> t.net_msgs_duplicated),
      fun t v -> t.net_msgs_duplicated <- v );
    ("net_msgs_delayed", (fun t -> t.net_msgs_delayed), fun t v -> t.net_msgs_delayed <- v);
    ("net_link_blocks", (fun t -> t.net_link_blocks), fun t v -> t.net_link_blocks <- v);
    ("torn_crashes", (fun t -> t.torn_crashes), fun t v -> t.torn_crashes <- v);
    ( "torn_bytes_discarded",
      (fun t -> t.torn_bytes_discarded),
      fun t v -> t.torn_bytes_discarded <- v );
    ("injected_crashes", (fun t -> t.injected_crashes), fun t v -> t.injected_crashes <- v);
  ]

let snapshot t = { t with node = t.node }

let diff ~after ~before =
  let d = create ~node:after.node () in
  List.iter (fun (_, get, set) -> set d (get after - get before)) fields;
  d.busy_seconds <- after.busy_seconds -. before.busy_seconds;
  d

let merge_into ~dst src =
  List.iter (fun (_, get, set) -> set dst (get dst + get src)) fields;
  dst.busy_seconds <- dst.busy_seconds +. src.busy_seconds

let pp_with ~show_zeros ppf t =
  List.iter
    (fun (name, get, _) ->
      if show_zeros || get t <> 0 then Format.fprintf ppf "%-30s %d@." name (get t))
    fields;
  if show_zeros || not (Float.equal t.busy_seconds 0.) then
    Format.fprintf ppf "%-30s %.6f@." "busy_seconds" t.busy_seconds

let to_alist t = List.map (fun (name, get, _) -> (name, get t)) fields

module Json = Repro_obs.Json

let to_json t =
  Json.Obj
    (("node", Json.Int t.node)
    :: List.map (fun (name, get, _) -> (name, Json.Int (get t))) fields
    @ [ ("busy_seconds", Json.Float t.busy_seconds) ])
