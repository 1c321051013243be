(** Global page identifiers.

    Every database page belongs to exactly one owner node (the node whose
    attached database stores it — Figure 1 of the paper), so a page id is
    the pair of the owner's node id and a slot within that database.
    Ownership never changes; routing a lock or page request is a field
    access. *)

type t = { owner : int; slot : int }

val make : owner:int -> slot:int -> t
val owner : t -> int
val compare : t -> t -> int
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string

val encode : Repro_util.Codec.encoder -> t -> unit
val decode : Repro_util.Codec.decoder -> t

module Map : Map.S with type key = t
module Set : Set.S with type elt = t
module Tbl : Hashtbl.S with type key = t
