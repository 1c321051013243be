(** Node-side lock cache and transaction-level lock table.

    Two layers per §2.1:
    - the {b node-level cached mode} — retained across transaction
      boundaries (inter-transaction caching), dropped or demoted only by
      owner callbacks;
    - the {b transaction-level holders} — strict 2PL locks of local
      transactions, released at commit/abort (the cached mode stays).

    A local transaction needing mode [m] on a page can proceed without
    any message iff the cached mode covers [m] ({!cache_covers}) and no
    conflicting local transaction holds the page — the message saving
    the paper and Rdb's lock carry-over both celebrate (E9). *)

open Repro_storage

type t

val create : unit -> t

val set_tracer : t -> (string -> Page_id.t -> unit) -> unit
(** Observability hook, fired on cached-lock state changes with an
    action name (["demote"], ["release"], ["early_release"]).  Default:
    no-op.  The node layer wires this to the typed event recorder. *)

(** {1 Node-level cache} *)

val cached_mode : t -> Page_id.t -> Mode.t option
val cache_covers : t -> Page_id.t -> Mode.t -> bool
val set_cached_mode : t -> Page_id.t -> Mode.t -> unit
(** Keeps the stronger of the existing and the new mode. *)

val drop_cached : t -> Page_id.t -> unit
val demote_cached_to_s : t -> Page_id.t -> unit
val cached_pages : t -> (Page_id.t * Mode.t) list
val cached_pages_owned_by : t -> int -> (Page_id.t * Mode.t) list
(** The cached pages of one owner node, in unspecified order.  Answered
    from a per-owner index of the table, so it visits only that owner's
    pages. *)

(** {1 Pending revocations}

    When an owner callback is refused because a local transaction still
    holds the lock, the cached lock is marked {e revoke-pending}: new
    local acquisitions that would conflict with the callback's mode are
    refused until the revocation completes.  Without this, a steady
    stream of local cache-hit acquisitions starves the remote requester
    forever.  The pending mark remembers the remote requester
    ([txn], [node]) so a stale mark (requester died) can be detected and
    dropped. *)

val set_revoke_pending : t -> Page_id.t -> mode:Mode.t -> txn:int -> node:int -> unit
(** Keeps the mark of the {e oldest} requesting transaction. *)

val revoke_pending : t -> Page_id.t -> (Mode.t * int * int) option
(** [(mode, txn, node)] of the pending revocation, if any. *)

val clear_revoke_pending : t -> Page_id.t -> unit

(** {1 Transaction-level locks} *)

type conflict = { holders : int list (** conflicting local transactions *) }

val acquire : t -> txn:int -> pid:Page_id.t -> mode:Mode.t -> (unit, conflict) result
(** Requires the cached mode to cover [mode] (the caller obtains it from
    the owner first).  Fails with the conflicting local transactions if
    strict 2PL forbids the grant; upgrading own [S] to [X] is allowed
    when no other holder exists. *)

val txn_mode : t -> txn:int -> pid:Page_id.t -> Mode.t option
val conflicts : t -> Page_id.t -> except:int -> mode:Mode.t -> int list
(** The local transactions other than [except] whose lock on the page
    is incompatible with [mode]; allocates only for those. *)

val any_txn_holds : t -> Page_id.t -> bool
(** True iff some local transaction holds the page — an owner callback
    must wait (be refused for now) in that case (§2.2). *)

val release_txn : t -> txn:int -> unit
(** Strict 2PL release at end of transaction; cached modes persist. *)

val release_txn_early : t -> txn:int -> (Page_id.t * Mode.t) list
(** Controlled lock violation: release [txn]'s locks at batch-submit
    time, before its commit record is durable.  Returns the released
    (page, mode) pairs, and registers [txn] as each page's early
    releaser ({!early_releaser}) in the same step, so later
    readers/overwriters of those pages pick up a commit dependency and
    cannot report durable while this commit can still be lost.  Fires
    the tracer with action ["early_release"] per page. *)

(** {1 Early-release registry} *)

val early_releaser : t -> Page_id.t -> int option
(** The newest unsettled transaction that released its lock on the
    page early. *)

val released_early : t -> Page_id.t -> bool
(** [early_releaser t pid <> None], without allocating. *)

val settle_early : t -> txn:int -> unit
(** [txn] reached its terminal state (durable commit): its pages stop
    breeding dependencies.  A page a later releaser has taken over
    keeps that releaser. *)

val clear : t -> unit
(** Node crash: wipes the lock table and the early-release registry. *)

val check_invariants : t -> unit
(** Txn-level locks never exceed the cached mode; no two X holders; the
    per-owner index lists exactly the cached pages. *)
