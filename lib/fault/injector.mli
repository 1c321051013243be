(** The deterministic fault injector: one per cluster, driven by a
    {!Fault_plan} and the plan's own RNG stream.

    The injector only *decides*; charging costs, bumping metrics and
    emitting observability events stay with the callers (the injector
    sits below the simulation layer).  When inactive — disarmed, or
    suspended, e.g. for the whole of recovery — every query returns the
    do-nothing answer without consuming randomness, so unfaulted code
    paths stay bit-identical. *)

type t

val create : Fault_plan.t -> t
val plan : t -> Fault_plan.t

(** {1 Arming} *)

val set_armed : t -> bool -> unit

val suspend : t -> unit
(** Nestable; recovery and the oracle run under suspension. *)

val resume : t -> unit
val heal_partitions : t -> unit

(** {1 Network} *)

type verdict = { drops : int; delay : float }
(** [drops] lost attempts precede the delivery (each costs bytes + one
    RTO); [delay] seconds of extra queueing model bounded reordering. *)

val on_message : t -> src:int -> dst:int -> verdict

val duplicate : t -> bool
(** One extra delivery of the message just sent?  Queried only at
    carrier sites whose receive path is idempotent. *)

val link_up : t -> a:int -> b:int -> bool
(** Probe the (normalized) link.  [false] means partitioned: the caller
    must back off *before* mutating state on either side.  Each probe
    drains the partition's bounded budget, so retries always heal it. *)

val rto : t -> float
(** Retransmission timeout the caller charges per lost attempt or
    failed probe. *)

(** {1 Storage} *)

type torn = { keep : int; flip : int option }
(** Keep [keep] bytes of the unforced tail; optionally flip the byte at
    offset [flip] (relative to the old durable boundary). *)

val on_crash_tail : t -> tail_len:int -> header:int -> first_framed:int option -> torn option
(** Decide whether (and how) a crash tears the unforced log tail.
    Guaranteed never to expose a complete valid record beyond the
    durable boundary. *)

(** {1 Crash points} *)

val crashpoint : t -> Fault_plan.point -> bool
(** [true]: crash the node here.  Bounded by the plan's crash budget.
    A point whose plan probability is zero never consumes randomness,
    so probing new points on old plans leaves their streams intact. *)
