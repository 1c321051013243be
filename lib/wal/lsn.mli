(** Log sequence numbers.

    An LSN is the byte address of a log record in one node's local log
    file (paper §2.1).  LSNs from different nodes are never compared —
    cross-node ordering is the PSNs' job — so the type carries no node
    id; the protocol code keeps per-node LSNs in per-node structures. *)

type t = int

val nil : t
(** "No LSN": used for the head of a transaction's undo chain and for
    CLRs whose undo-next falls off the chain.  Compares below every real
    LSN. *)

val is_nil : t -> bool
val compare : t -> t -> int
val min : t -> t -> t
val max : t -> t -> t
val pp : Format.formatter -> t -> unit

val encode : Repro_util.Codec.encoder -> t -> unit
val decode : Repro_util.Codec.decoder -> t
