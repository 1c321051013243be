(** Per-node log manager: framing, checksums, forces and scans on top of
    {!Repro_storage.Log_device}.

    Framing is [u32 payload-length | u32 CRC-32 | payload].  A record's
    LSN is the device offset of its length field, so LSNs order records
    and [lsn + framed_size] is the next record — which gives cheap
    forward scans.

    Every read path runs one frame check, in place in the device's bytes
    and without allocating: the frame must lie in the live region and be
    whole; unless it lies wholly inside the device's verified range
    ({!Repro_storage.Log_device.verified}), it must also match its CRC
    and hold a record ({!Record.skip}: tags, lengths and bounds) that
    fills its payload exactly.  A frame that fails raises
    [Codec.Corrupt], which a scan treats as end-of-log (torn tail).
    {!read} and {!fold} then decode the record; {!fold_heads} reads only
    its head fields; {!read_op} only its operation; {!next_lsn} and
    {!seal} need the check alone.

    A forward scan ({!fold}, {!fold_heads}, {!seal}) adds the run of
    frames it passed to the verified range, so a later pass over the
    same bytes — the next recovery pass, redo's re-read of a remembered
    location, a rollback's {!read} — skips the CRC and the structural
    check; the random reads only consult the range.  That is sound
    because the device lowers the range whenever it changes a byte
    under it, and because the LSNs read are frame starts: an LSN comes
    from {!append} or a scan, never from inside a frame. *)

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

val set_after_force : t -> (unit -> unit) -> unit
(** The one hook every force entry point ({!force}, {!force_all},
    {!force_shared}) runs when it returns, after its charge and event,
    whether or not bytes moved.  {!Group_commit.create} installs its
    batch's sweep here, so no force can leave a pending commit it made
    durable uncompleted.  Default: nothing. *)

val force : t -> upto:Lsn.t -> unit
(** Makes all records at LSN <= [upto] durable.  Charges one log force
    if any bytes actually move; a no-op (already durable) charges
    nothing.  Then runs the after-force hook. *)

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

val read_op : t -> Lsn.t -> pid:Repro_storage.Page_id.t -> psn_before:int -> Record.update_op
(** Redo's read of a remembered location: the operation of the [Update]
    or [Clr] at the LSN, and nothing else of the record.  It runs the
    frame check and charges exactly what {!read} charges, then checks
    the record's kind, page and [psn_before] in place and decodes only
    its [update_op].
    @raise Invalid_argument when the record is not an [Update] or [Clr]
    of [pid] with that [psn_before]. *)

val next_lsn : t -> Lsn.t -> Lsn.t
(** LSN immediately after the record at the given LSN. *)

val fold : t -> ?upto:Lsn.t -> from:Lsn.t -> init:'a -> ('a -> Lsn.t -> Record.t -> 'a) -> 'a
(** Forward scan that decodes every record.  [from = Lsn.nil] starts at
    the low-water mark.  Each record charges a recovery-scan cost and
    bumps [recovery_log_records_scanned].  Stops before [upto]
    (exclusive) or at the end of the log.  The callback must not change
    the log it scans. *)

val fold_heads :
  t ->
  ?upto:Lsn.t ->
  from:Lsn.t ->
  init:'a ->
  ('a ->
  Lsn.t ->
  txn:int ->
  kind:Record.Kind.t ->
  owner:int ->
  slot:int ->
  psn_before:int ->
  'a) ->
  'a
(** {!fold} for scans that only filter on a record's head: the
    callback gets its transaction and kind and, for an [Update] or
    [Clr], the page's [owner] and [slot] and the record's [psn_before]
    (0 for other kinds), read in place at fixed payload offsets
    ({!Record.txn_offset} and so on).  Every frame gets the frame check
    of {!fold}, and the scan charges exactly what {!fold} charges, but
    it decodes no record and allocates nothing per frame.  The callback
    must not change the log it scans. *)

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
