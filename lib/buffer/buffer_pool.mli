(** A node's buffer pool (cache) — steal / no-force (§2.1).

    The pool is deliberately policy-free about {e what happens} to an
    evicted dirty page (write locally vs. ship to the owner — that is
    the node's business); it only picks victims and tracks frame state.
    The WAL rule is enforced by the node: it must force the log up to a
    dirty frame's [last_lsn] before the frame leaves the pool.

    Replacement is LRU, which matches what BeSS used.  The pool keeps
    its frames on a recency list (a doubly linked list over frame slots,
    held in [int] arrays): {!find} and {!install} move a frame to the
    most recently used end in O(1), and {!choose_victim} walks from the
    least recently used end. *)

open Repro_storage

type frame = {
  page : Page.t;
  mutable dirty : bool;
  mutable pin_count : int;
  mutable rec_lsn : Repro_wal.Lsn.t;  (** first LSN that dirtied this caching period *)
  mutable last_lsn : Repro_wal.Lsn.t;  (** latest update record; WAL force bound *)
  slot : int;  (** the frame's place on the pool's recency list *)
}

type t

val create : capacity:int -> unit -> t
(** [capacity] in pages; must be positive. *)

val set_tracer : t -> (Repro_obs.Event.kind -> Page_id.t -> unit) -> unit
(** Observability hook, fired with [Cache_install] / [Cache_evict] and
    the page as frames enter and leave the pool.  Default: no-op. *)

val size : t -> int
val is_full : t -> bool

val find : t -> Page_id.t -> frame option
(** Touches the frame for LRU. *)

val peek : t -> Page_id.t -> frame option
(** Does not touch the frame. *)

val contains : t -> Page_id.t -> bool

val install : t -> Page.t -> frame
(** Adds a clean, unpinned frame.  @raise Invalid_argument if the pool
    is full (the node must evict first) or the page is already
    cached. *)

val mark_dirty : frame -> lsn:Repro_wal.Lsn.t -> unit
(** Records an update at [lsn]: sets dirty, maintains [rec_lsn] /
    [last_lsn]. *)

val pin : frame -> unit
val unpin : frame -> unit

val choose_victim : t -> frame option
(** The least recently used unpinned frame, or [None] if all are
    pinned.  Walks the recency list from its LRU end, skipping pinned
    frames: O(1 + pinned frames older than the victim), never a scan of
    the whole pool. *)

val remove : t -> Page_id.t -> unit
val cached_ids : t -> Page_id.t list

val cached_ids_owned_by : t -> int -> Page_id.t list
(** [cached_ids] of one owner node's pages, in the same order, filtered
    inside the fold. *)

val dirty_frames : t -> frame list
val clear : t -> unit
(** Crash: every frame is lost. *)
