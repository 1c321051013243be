(** Space allocation map with PSN seeding.

    The paper (§2.1) adopts the ARIES/CSA approach to PSN initialisation:
    the PSN stored in the space-allocation map entry for a page is
    assigned to the page's PSN field when the page is (re)allocated.
    This guarantees PSNs never regress across a deallocate/reallocate
    cycle, which the PSN-ordered recovery of §2.3.4 depends on.

    The map is durable metadata of the owner node (it survives crashes —
    in a real system it lives on dedicated disk pages). *)

type t

val create : owner:int -> t

val allocate : t -> page_size:int -> Page.t
(** Allocates the next free slot of the owner's database and returns a
    fresh zeroed page whose PSN is the seed recorded in the map (0 for a
    never-used slot). *)

val deallocate : t -> Page.t -> unit
(** Frees the page's slot, remembering [Page.psn p + 1] as the PSN seed
    a future reallocation must start from. *)

val is_allocated : t -> Page_id.t -> bool

val psn_seed : t -> Page_id.t -> int
(** Seed that would be used if the slot were allocated now. *)
