(** Typed trace events.

    An event is a point on the simulated timeline: what happened
    ([kind]), where ([node]), when ([time], simulated seconds), for
    which transaction ([txn], [-1] when none), plus free-form [attrs].
    Transaction and recovery-phase boundaries are events too
    ([txn.begin] ... [txn.commit]/[txn.abort], [recovery.phase] with its
    [dur]).
    Attrs are primitive key/value pairs rather than domain types —
    [repro_obs] sits below the simulation layer, so it cannot reference
    [Page_id] and friends; callers stringify. *)

type value = Int of int | Float of float | Str of string | Bool of bool

type kind =
  | Msg_send
  | Msg_recv
  | Log_append
  | Log_force
  | Page_read
  | Page_write
  | Page_ship
  | Cache_install
  | Cache_evict
  | Lock_request
  | Lock_grant
  | Lock_callback
  | Lock_demote
  | Lock_release
  | Lock_acquired
  | Ckpt_begin
  | Ckpt_end
  | Txn_begin
  | Txn_commit
  | Txn_abort
  | Commit_submit
  | Commit_batch
  | Commit_dep
  | Lock_early_release
  | Crash
  | Recovery_begin
  | Recovery_end
  | Recovery_phase
  | Recovery_restart
  | Recovery_retry
  | Fault_drop
  | Fault_dup
  | Fault_delay
  | Fault_partition
  | Fault_torn
  | Fault_crash

type t = {
  time : float;
  node : int;
  txn : int;  (** trace context: id of the causing transaction, -1 if none *)
  kind : kind;
  attrs : (string * value) list;
}

val make : time:float -> node:int -> ?txn:int -> kind -> (string * value) list -> t

val kind_name : kind -> string
(** Stable dotted name, e.g. [Msg_send] -> ["msg.send"]. *)

val kind_of_name : string -> kind option
val all_kinds : kind list

val render : t -> string
(** One-line human rendering: time, node, trace context, kind, attrs. *)

val to_json : t -> Json.t
(** The trace context is exported under the key ["ctx"] (several kinds
    carry a domain attr named ["txn"], which must not collide). *)

val of_json : Json.t -> t option
(** Inverse of [to_json]; [None] when the object is missing a header
    field or names an unknown kind. *)

(** {2 Attr accessors} *)

val attr : t -> string -> value option
val attr_int : t -> string -> int option

val attr_float : t -> string -> float option
(** Also accepts an [Int] attr (JSON round-trips may widen). *)

val attr_str : t -> string -> string option

val txn_of : t -> int
(** The transaction an event belongs to: its trace context, falling
    back to a [txn] attr for events emitted outside the context window
    ([txn.begin]); [-1] when neither is present. *)
