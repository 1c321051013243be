(** Binary encoding and decoding of on-"disk" structures.

    Log records and page headers are serialised through this module.  The
    format is little-endian with fixed-width integers; collections carry a
    32-bit length prefix.  Decoding raises {!Corrupt} on any structural
    violation (truncated buffer, negative length, bad tag), which the log
    manager interprets as "end of valid log". *)

exception Corrupt of string
(** Raised by decoders when the input cannot be parsed. *)

(** {1 Encoding} *)

type encoder
(** An append-only byte sink. *)

val encoder : unit -> encoder
val to_string : encoder -> string

val with_scratch : (encoder -> unit) -> Bytes.t
(** Runs the function against a shared, cleared scratch encoder and
    returns a fresh copy of the accumulated bytes, which the caller
    owns (the log manager patches its frame header into them).  Avoids
    a buffer allocation per encode on the log hot path.  Calls must
    not nest (the simulator is single-threaded, and every caller
    materialises its result before returning, so the scratch is free
    again on exit). *)

val measure : (encoder -> unit) -> int
(** The number of bytes the function writes, counted in the same
    scratch encoder without copying them out.  Same nesting rule as
    {!with_scratch}. *)

val u8 : encoder -> int -> unit
(** Writes the low 8 bits. *)

val u32 : encoder -> int -> unit
(** Writes the low 32 bits; values must be non-negative. *)

val i64 : encoder -> int64 -> unit
val int_as_i64 : encoder -> int -> unit
val bytes : encoder -> string -> unit
(** Length-prefixed byte string. *)

val list : (encoder -> 'a -> unit) -> encoder -> 'a list -> unit

(** {1 Decoding} *)

type decoder
(** A cursor over a slice of an immutable byte string. *)

val decoder : ?pos:int -> ?len:int -> string -> decoder
(** [decoder ~pos ~len s] reads [s[pos, pos+len)] (default: from [pos]
    to the end).  Every read is bounds-checked against the slice, so a
    decode that would run past it raises {!Corrupt} instead of reading
    the bytes that follow.  Raises [Invalid_argument] when the slice is
    not inside [s]. *)

val reframe : decoder -> string -> pos:int -> len:int -> unit
(** [reframe d s ~pos ~len] points [d] at the slice [s[pos, pos+len)],
    cursor at [pos], as {!decoder} would, without allocating a new
    decoder: a scan reuses one decoder for every frame.  Raises
    [Invalid_argument] when the slice is not inside [s]. *)

val remaining : decoder -> int

val read_u8 : decoder -> int
val read_u32 : decoder -> int
val read_i64 : decoder -> int64
val read_int_as_i64 : decoder -> int
val read_bytes : decoder -> string
val read_list : (decoder -> 'a) -> decoder -> 'a list

(** {2 Skipping}

    Each skip moves the cursor past a value with exactly the bounds and
    length checks of the matching read, raising {!Corrupt} exactly when
    it would, but allocates nothing. *)

val skip : decoder -> int -> unit
(** [skip d n] moves past [n] bytes (a fixed-width field). *)

val skip_bytes : decoder -> unit
(** Moves past a length-prefixed byte string ({!read_bytes}). *)

val skip_list : (decoder -> unit) -> decoder -> unit
(** Moves past a list ({!read_list}), skipping each element with the
    function. *)
