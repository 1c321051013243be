(** A set of [(row, slot)] pairs of small non-negative ints, one bit
    each: the per-node index of the two lock tables.  {!Global_locks}
    keeps one row per holder node over its own page slots, and
    {!Local_locks} one row per owner node over the cached page slots.
    An owner's slots are dense, so a row is a byte string that grows to
    the highest slot it has held; adding and removing a pair cost O(1)
    and allocate only when a row grows.  Listing a row visits its bytes,
    not the lock table, so a recovering node's listing costs O(its own
    pages at that peer) instead of O(every lock the peer tracks). *)

type t

val create : unit -> t
val add : t -> row:int -> slot:int -> unit
val remove : t -> row:int -> slot:int -> unit
val mem : t -> row:int -> slot:int -> bool

val fold_row : t -> row:int -> (int -> 'a -> 'a) -> 'a -> 'a
(** Folds over the slots set in [row], in ascending order. *)

val cardinal : t -> int
(** The number of pairs in the set (test hook: it walks every row). *)

val clear : t -> unit
(** Empties the set; the rows keep their size. *)
