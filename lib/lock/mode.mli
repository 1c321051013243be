(** Lock modes.  The paper locks at page granularity with shared and
    exclusive modes under strict two-phase locking (§2.1); the
    fine-granularity extension is the authors' EDBT'96 follow-up and out
    of scope here. *)

type t = S | X

val compatible : t -> t -> bool
(** [compatible held requested] — only [S]/[S] coexists. *)

val covers : t -> t -> bool
(** [covers held needed]: can a holder of [held] proceed as if it held
    [needed]?  [X] covers both; [S] covers only [S]. *)

val max : t -> t -> t
val compare : t -> t -> int
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
