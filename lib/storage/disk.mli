(** A node's simulated database disk.

    Holds the durable versions of the pages the node owns.  Contents
    survive {!Node.crash} — losing a disk is outside the paper's fault
    model.  Reads and writes charge the cost model and hand over
    {!Page.copy} images: copy-on-write, so a read or write moves no
    bytes, and a later write to the cached page (or to the image a read
    returned) never reaches the durable version. *)

type t

val create : Repro_sim.Env.t -> Repro_sim.Metrics.t -> t
(** [create env metrics] — all I/O is charged to [metrics] (the owning
    node's counters). *)

val read : t -> Page_id.t -> Page.t option
(** Charged read of the durable page, or [None] if never written. *)

val write : t -> Page.t -> unit
(** Charged in-place durable write. *)

val psn_on_disk : t -> Page_id.t -> int option
(** PSN of the durable version.  Charged as a read: recovery really does
    fetch the page header from disk (§2.3.2 compares DPT PSNs against
    "P's PSN value on disk"). *)

val mem : t -> Page_id.t -> bool
(** Uncharged existence check (metadata, not a page read). *)
