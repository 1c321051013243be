(** Small formatting helpers shared by the CLI, examples and benches. *)

val bytes : Format.formatter -> int -> unit
(** Human scale: "512 B", "4.0 KiB", "1.2 MiB". *)

val seconds : Format.formatter -> float -> unit
(** Picks µs / ms / s as appropriate. *)

val table : header:string list -> rows:string list list -> Format.formatter -> unit -> unit
(** Renders an aligned plain-text table; used for every experiment's
    output so EXPERIMENTS.md rows can be pasted verbatim. *)
