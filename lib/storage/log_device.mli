(** The append-only log device of one node.

    Models a circular log file with crash semantics:

    - appended bytes live in a volatile tail until {!force} makes them
      durable; a {!crash} discards the unforced tail;
    - offsets are logical and monotonically increasing — they are the
      LSNs of the paper (§2.1: "a log sequence number that corresponds to
      the address of the log record in the local log file");
    - an optional {!capacity} bounds the live region
      [low_water, end).  Appends beyond it raise {!Log_full}; the §2.5
      log-space-management protocol advances [low_water]
      ({!truncate_to}) to free space.

    The device stores raw bytes in one growable buffer; record framing
    and checksums are the {!Repro_wal.Log_manager}'s business.  Crashes,
    torn-tail trims and scribbles cut or flip bytes in place, never
    copying the retained history.

    {b The verified range.}  The device also keeps one range
    [[lo, hi)] of offsets in which every frame lying wholly inside has
    passed the log manager's full frame check since its bytes last
    changed ({!extend_verified}, {!verified}).  The device owns it
    because only the device changes log bytes, and only through
    {!crash}, {!scribble} and {!trim_end}: each lowers [hi] to the first
    byte it may have changed or dropped — the old durable boundary, the
    scribbled byte, the cut.  {!append} need not: it writes only at
    [end_offset], and [hi <= end_offset] always holds, since every
    mutator that moves [end_offset] down lowers [hi] with it.  {!view}
    hands out the bytes as a [string], so no caller can write them. *)

type t

exception Log_full
(** Raised by {!append} when the live region would exceed capacity. *)

val create : ?capacity:int -> unit -> t
(** Unbounded unless [capacity] (in bytes) is given. *)

val append : ?overdraft:bool -> t -> string -> int
(** [append t s] appends [s] to the volatile tail and returns the
    logical offset of its first byte.  [overdraft] (default false)
    bypasses the capacity check — the reserved space that guarantees a
    rollback can always log its compensation records. *)

val force : t -> upto:int -> int
(** [force t ~upto] makes everything below offset [upto] durable and
    returns the number of bytes that actually moved (0 if already
    durable) — the caller charges I/O for exactly that. *)

val read : t -> pos:int -> len:int -> string
(** Reads [len] bytes at logical offset [pos].  Reading the volatile
    tail is allowed (rollback reads records it has not forced);
    reading beyond [end_offset] or below 0 raises [Invalid_argument].
    Reading below [low_water] also raises: those bytes were reclaimed. *)

val view : t -> pos:int -> len:int -> string
(** [view t ~pos ~len] checks the range exactly as {!read} does, then
    returns the device's backing store without copying: the requested
    bytes are [s[pos, pos+len)] of the result (logical offsets are
    indexes).  The result aliases the device — it is only valid until
    the next {!append}, {!crash}, {!scribble} or {!trim_end} — and is
    read-only.  The log manager checksums and decodes frames in place
    through it. *)

val verified : t -> pos:int -> len:int -> bool
(** Whether [[pos, pos+len)] lies inside the verified range: a frame
    there has passed the full check and its bytes have not changed
    since. *)

val extend_verified : t -> lo:int -> hi:int -> unit
(** [extend_verified t ~lo ~hi] records that the frames from [lo] up to
    [hi], one after another, all passed the full check just now.  The
    range becomes the union of the two when they overlap or touch, and
    [[lo, hi)] alone when they do not; an empty [[lo, hi)] changes
    nothing.  Raises [Invalid_argument] when a non-empty [[lo, hi)]
    ends past [end_offset t]. *)

val end_offset : t -> int
(** Offset one past the last appended byte: the next record's LSN. *)

val durable_offset : t -> int
(** Offset one past the last durable byte. *)

val low_water : t -> int
val truncate_to : t -> int -> unit
(** Advance [low_water]; never moves backwards. *)

val used : t -> int
(** Bytes in the live region, [end_offset - low_water]. *)

val available : t -> int option
(** Remaining capacity, or [None] if unbounded. *)

val crash : ?keep_tail:int -> t -> unit
(** Discards the volatile tail: [end_offset] snaps back to
    [durable_offset].  A torn write is modelled with [keep_tail > 0]:
    that many unforced bytes (clamped to the tail length) survive the
    crash as if the device had partially written them, the old durable
    boundary is remembered as the {!suspect} point, and [durable]
    advances over the surviving bytes (they {e are} on disk — they are
    just not trustworthy).  Lowers the verified range to the old durable
    boundary. *)

val scribble : t -> pos:int -> unit
(** Flip the bits of the byte at [pos] — models a corrupt sector inside
    a torn write.  Recovery must detect it via checksums, so the
    verified range is lowered to [pos]. *)

val trim_end : t -> int -> unit
(** [trim_end t off] discards everything at and beyond [off] — the
    recovery seal uses it to cut a torn tail back to the last whole
    record.  [off] must be within [low_water, end_offset].  Lowers the
    verified range to [off]. *)

val suspect : t -> int option
(** The offset from which bytes may be torn (set by
    [crash ~keep_tail]); [None] when the log is trustworthy. *)

val clear_suspect : t -> unit
