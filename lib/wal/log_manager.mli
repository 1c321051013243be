(** Per-node log manager: framing, checksums, forces and scans on top of
    {!Repro_storage.Log_device}.

    Framing is [u32 payload-length | u32 CRC-32 | payload].  A record's
    LSN is the device offset of its length field, so LSNs order records
    and [lsn + framed_size] is the next record — which gives cheap
    forward scans.  Frames are checksummed and decoded in place in the
    device's bytes.  A truncated frame, a CRC mismatch or a payload the
    record does not fill exactly raises [Codec.Corrupt], which a scan
    treats as end-of-log (torn tail). *)

type t

val create : Repro_sim.Env.t -> Repro_sim.Metrics.t -> ?capacity:int -> unit -> t
(** [capacity] bounds the live log region in bytes (experiment E6). *)

val device : t -> Repro_storage.Log_device.t
(** The device under the frames, for tests that pin or damage raw log
    bytes. *)

(** {1 Writing} *)

exception Log_full
(** Re-raised from the device when an append would exceed capacity; the
    §2.5 log-space manager catches it. *)

val append : ?overdraft:bool -> t -> Record.t -> Lsn.t
(** Appends to the volatile tail (WAL buffer), charging CPU.
    [overdraft] bypasses the capacity limit — rollback records must
    always fit (reserved undo space). *)

val force : t -> upto:Lsn.t -> unit
(** Makes all records at LSN <= [upto] durable.  Charges one log force
    if any bytes actually move; a no-op (already durable) charges
    nothing. *)

val force_all : t -> unit

val force_shared : t -> upto:Lsn.t -> sharers:int -> unit
(** Like {!force}, but the single physical force is accounted as shared
    by [sharers] concurrently committing transactions (group commit):
    one seek charge total, plus the [commit_batches]/[batched_commits]
    counters.  A no-op (already durable) charges nothing. *)

(** {1 Reading} *)

val read : t -> Lsn.t -> Record.t
(** Random access by exact LSN — the undo path follows [prev]/[undo_next]
    chains with this.  Charges per-record CPU, not a recovery-scan
    count. *)

val next_lsn : t -> Lsn.t -> Lsn.t
(** LSN immediately after the record at the given LSN. *)

val fold : t -> ?upto:Lsn.t -> from:Lsn.t -> init:'a -> ('a -> Lsn.t -> Record.t -> 'a) -> 'a
(** Forward scan for analysis / redo passes.  [from = Lsn.nil] starts at
    the low-water mark.  Each record charges a recovery-scan cost and
    bumps [recovery_log_records_scanned].  Stops before [upto]
    (exclusive) or at the end of the log. *)

(** {1 Positions and space} *)

val end_lsn : t -> Lsn.t
(** LSN the next append will get. *)

val durable_lsn : t -> Lsn.t
val used_bytes : t -> int
val available_bytes : t -> int option
val truncate_to : t -> Lsn.t -> unit
(** Reclaim space below the given LSN (min RedoLSN of the node's DPT). *)

(** {1 Failure} *)

val crash : ?faults:Repro_fault.Injector.t -> t -> unit
(** Loses the volatile tail.  With a fault injector, the crash may
    instead tear the tail: a prefix of the unforced bytes survives —
    cut strictly inside the first unforced record, or that record kept
    whole with a payload byte corrupted so its CRC fails — and the
    device is marked suspect.  A torn crash never exposes a complete
    valid record beyond the pre-crash durable boundary. *)

val seal : t -> int
(** Recovery's first step after a possibly-torn crash: scan forward
    from the suspect point and trim the log at the first corrupt or
    partial frame, restoring the invariant that every byte below
    [end_lsn] is a whole valid record.  Returns the number of bytes
    discarded (0 when the log was clean). *)
