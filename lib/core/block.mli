(** Blocking model.

    The simulator has no threads: an operation that would have to wait
    in a real system raises {!Would_block} with a typed reason, and the
    workload driver re-queues the transaction's step and retries later.
    Lock conflicts carry the blocking transaction ids so the driver can
    resolve them by wound-wait (older transactions abort younger
    blockers). *)

type reason =
  | Lock_conflict of { blockers : int list }
      (** conflicting transaction ids (local or remote — ids are
          cluster-wide) *)
  | Node_down of { node : int }  (** the owner of the data is crashed *)
  | Log_space of { node : int }
      (** the node's log is full and freeing space is itself blocked *)
  | Page_recovering of Repro_storage.Page_id.t
      (** access stopped until the owner finishes recovering the page *)
  | Page_unavailable of { pid : Repro_storage.Page_id.t; blocker : int }
      (** the page's recovery is deferred until [blocker] comes back;
          retry after the blocker recovers *)
  | Net_unreachable of { src : int; dst : int }
      (** an injected partition blocks the link; retry heals it *)

exception Would_block of reason

val block : reason -> 'a
val pp_reason : Format.formatter -> reason -> unit
