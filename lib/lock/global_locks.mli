(** Owner-side lock service.

    Every node runs one of these for the pages it owns (Figure 1: owner
    nodes).  It tracks which {e nodes} hold which mode on each owned
    page — node-level locks, because locks are cached across transaction
    boundaries (inter-transaction caching, §2.1).  Transaction-level
    bookkeeping lives in each node's {!Local_locks}.

    The table only decides; sending callback messages and waiting for
    acknowledgements is the node layer's job (§2.2). *)

open Repro_storage

type t

val create : owner:int -> t
(** The lock table of node [owner]: it holds only pages that node owns
    ({!grant} rejects any other). *)

val set_tracer : t -> (Repro_obs.Event.kind -> int -> Page_id.t -> unit) -> unit
(** Observability hook, fired with the event kind ([Lock_grant],
    [Lock_demote], [Lock_release]), the holder node and the page.  Default:
    no-op.  The node layer wires this to the typed event recorder. *)

type decision =
  | Granted
  | Needs_callback of { holders : (int * Mode.t) list }
      (** Conflicting node-level locks that must be called back (or
          demoted) before the request can be granted. *)

val request : t -> node:int -> pid:Page_id.t -> mode:Mode.t -> decision
(** Pure decision; does not mutate.  A node already holding a covering
    mode gets [Granted] immediately. *)

val grant : t -> node:int -> pid:Page_id.t -> mode:Mode.t -> unit
(** Records the grant (upgrade if the node already holds [S]). *)

val release : t -> node:int -> pid:Page_id.t -> unit
val demote_to_s : t -> node:int -> pid:Page_id.t -> unit
(** Callback in shared mode: an [X] holder keeps an [S] lock (§2.1). *)

val holder_mode : t -> node:int -> pid:Page_id.t -> Mode.t option
val holders : t -> pid:Page_id.t -> (int * Mode.t) list
val x_holder : t -> pid:Page_id.t -> int option

(** {1 Per-node listings}

    Answered from an index of the pages each holder node holds, kept by
    {!grant}, {!release} and {!clear}: a listing visits only [node]'s
    locks, not the whole table.  Their order is unspecified. *)

val locks_held_by_node : t -> node:int -> (Page_id.t * Mode.t) list
(** Everything a given (possibly crashed) node holds here — sent to it
    during lock reconstruction (§2.3.3). *)

val release_all_shared_of_node : t -> node:int -> Page_id.t list
(** §2.3.3: when a node crashes, operational owners release its shared
    locks but retain its exclusive ones.  Returns the released pages. *)

val x_pages_of_node : t -> node:int -> Page_id.t list

val pages : t -> Page_id.t list
(** All pages with at least one holder. *)

val clear : t -> unit
(** Owner crash: its lock table is volatile and is lost. *)

val check_invariants : t -> unit
(** Test hook: at most one [X] holder per page, an [X] holder is never
    accompanied by other holders, every page is the owner's, and the
    holder index lists exactly the table's locks. *)
