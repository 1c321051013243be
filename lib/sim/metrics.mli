(** Counters that back every experiment.

    Each node carries the one [t] its work is charged to; nothing else
    holds a copy.  A cluster-wide figure is computed on read by
    [merge_into] over the nodes.  Counters are plain mutable ints bumped
    on the hot paths; a snapshot is a copy, and [diff] subtracts
    snapshots so a bench can measure exactly the interval it cares
    about. *)

type t = {
  mutable node : int;
      (** which node these counters belong to; [-1] = a cluster sum or
          a standalone record.  Excluded from arithmetic ([diff] and
          [merge_into] leave it alone) — it exists so charge primitives
          can attribute typed trace events without widening their
          signatures. *)
  mutable messages_sent : int;  (** inter-node protocol messages *)
  mutable message_bytes : int;
  mutable commit_messages : int;  (** messages on the commit path only — the paper's headline count *)
  mutable log_appends : int;
  mutable log_bytes : int;
  mutable log_forces : int;  (** synchronous log-disk forces *)
  mutable log_records_shipped : int;  (** records sent to a remote log (baselines only) *)
  mutable page_disk_reads : int;
  mutable page_disk_writes : int;
  mutable commit_page_writes : int;  (** pages forced at commit (forced-write baselines) *)
  mutable pages_shipped : int;  (** pages moved between node caches *)
  mutable callbacks_sent : int;
  mutable lock_requests_remote : int;  (** lock requests that left the node *)
  mutable lock_requests_local : int;  (** satisfied from the local lock cache *)
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable txn_committed : int;
  mutable txn_aborted : int;
  mutable commit_batches : int;  (** group-commit batches forced (shared forces) *)
  mutable batched_commits : int;  (** commits whose force was shared via group commit *)
  mutable recovery_log_records_scanned : int;
  mutable recovery_pages_redone : int;
  mutable recovery_messages : int;
  mutable recovery_page_transfers : int;
  mutable recovery_restarts : int;  (** recovery runs aborted by a nested crash and re-entered *)
  mutable recovery_retries : int;  (** recovery exchanges retried after a drop/partition *)
  mutable checkpoints_taken : int;
  mutable log_space_stalls : int;  (** times a txn waited for log space (E6) *)
  mutable flush_requests : int;  (** §2.5 owner-force requests *)
  mutable net_msgs_dropped : int;  (** injected: message attempts lost then retransmitted *)
  mutable net_msgs_duplicated : int;  (** injected: messages delivered twice *)
  mutable net_msgs_delayed : int;  (** injected: messages held in a queue (reordering) *)
  mutable net_link_blocks : int;  (** injected: sends refused by a temporary partition *)
  mutable torn_crashes : int;  (** injected: crashes that tore the unforced log tail *)
  mutable torn_bytes_discarded : int;  (** torn-tail bytes trimmed by the recovery seal *)
  mutable injected_crashes : int;  (** crashes fired at protocol crash points *)
  mutable busy_seconds : float;
      (** simulated seconds of work performed {e by this node} — the
          makespan of a run is bounded below by the busiest node's
          [busy_seconds], which is how the throughput experiments (E2)
          expose the server bottleneck without a full parallel DES *)
}

val create : ?node:int -> unit -> t

val snapshot : t -> t
(** A copy, unaffected by later bumps to [t]. *)

val diff : after:t -> before:t -> t
(** Field-wise subtraction. *)

val merge_into : dst:t -> t -> unit
(** Field-wise addition into [dst], for cluster aggregates. *)

val pp_with : show_zeros:bool -> Format.formatter -> t -> unit
(** One counter per line.  [~show_zeros:false] omits zero counters;
    [~show_zeros:true] prints every one — use where a zero {e is} the
    claim (e.g. E1's [log_records_shipped = 0]). *)

val to_alist : t -> (string * int) list
(** Stable field order; used by the bench harness to print table rows. *)

val to_json : t -> Repro_obs.Json.t
(** All counters (zeros included) plus [node] and [busy_seconds]. *)
