(** CRC-32 (IEEE 802.3 polynomial) over byte buffers.

    Every log record carries a CRC of its payload so that a partially
    written tail — the torn write a crash can leave behind — is detected
    and treated as the end of the log, exactly as a production WAL does.
    The slice is folded eight bytes at a time (slicing-by-8), so the
    checksum costs well under a nanosecond per byte on the recovery
    scan.  A CRC is a native [int] in [[0, 2{^32})], so computing one
    allocates nothing. *)

val update : int -> Bytes.t -> pos:int -> len:int -> int
(** [update crc b ~pos ~len] extends [crc], the CRC of some prefix,
    with the slice [b[pos, pos+len)]: [update (string a) b] is the CRC
    of [a] followed by the slice.  Raises [Invalid_argument] when the
    slice is out of bounds. *)

val bytes : Bytes.t -> pos:int -> len:int -> int
(** [bytes b ~pos ~len] computes the CRC of the slice [b[pos, pos+len)]. *)

val sub : string -> pos:int -> len:int -> int
(** [sub s ~pos ~len] computes the CRC of the slice [s[pos, pos+len)]. *)

val string : string -> int
(** CRC of a whole string. *)
