(** Database pages.

    A page is a fixed-size byte array plus a header holding its id and a
    {b page sequence number} (PSN).  Per the paper (§2.1) the PSN is
    incremented by one on every update; it is the sole ordering mechanism
    used during multi-node recovery, replacing synchronised clocks.

    The PSN is only ever changed through {!bump_psn} (normal updates) or
    {!set_psn} (redo installing a recovered state), keeping the
    "incremented by one every time the page is updated" invariant
    auditable. *)

type t

val create : id:Page_id.t -> psn:int -> size:int -> t
(** A zero-filled page.  [psn] comes from the owner's allocation map. *)

val id : t -> Page_id.t
val psn : t -> int
val size : t -> int

val bump_psn : t -> unit
(** PSN := PSN + 1; call exactly once per applied update. *)

val set_psn : t -> int -> unit
(** Used only by redo/undo when installing a logged state. *)

val copy : t -> t
(** An independent image of the page, in O(1): copy-on-write.  The copy
    shares the original's byte buffer and both are marked shared; the
    first byte write to either ({!write}, {!set_cell}, {!add_cell})
    gives the writer its own buffer first.  A write to one image is
    never seen through the other, so shipping a page between nodes or
    to disk still copies and cached and durable versions cannot alias;
    but a page that moves without being written never has its bytes
    copied.  The PSN is per image and never shared. *)

(** {1 Data access} *)

val read : t -> off:int -> len:int -> string
val write : t -> off:int -> string -> unit

val assign : t -> from:t -> unit
(** [assign dst ~from] makes [dst]'s bytes those of [from], shared
    copy-on-write as by {!copy}: a later write to either image does not
    show in the other.  The PSN is left alone (set it with {!set_psn}).
    @raise Invalid_argument unless both have the same id and size. *)

val get_cell : t -> off:int -> int64
(** Reads the 8-byte little-endian integer cell at [off]. *)

val set_cell : t -> off:int -> int64 -> unit

val add_cell : t -> off:int -> int64 -> unit
(** [add_cell p ~off d] adds [d] to the cell — the "logical" update
    operation whose undo is adding [-d] (§3.2: the scheme supports both
    physical and logical logging). *)

val equal_contents : t -> t -> bool
(** Same id, PSN and bytes; the test oracle's comparison. *)

val encode : Repro_util.Codec.encoder -> t -> unit
val decode : Repro_util.Codec.decoder -> t
