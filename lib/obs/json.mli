(** Minimal JSON values — emitter and parser.

    The toolchain has no JSON library baked in, so this hand-rolled
    module covers exactly what the observability layer needs: object /
    array construction, compact and pretty printing with correct string
    escaping, and a strict parser good enough to read back our own
    output (event streams, fault plans and the tests). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact single-line rendering.  Floats print with enough digits to
    round-trip; NaN becomes [null]. *)

val to_string_pretty : t -> string
(** Two-space-indented rendering for human-facing dumps. *)

exception Parse_error of string

val of_string : string -> t
(** Strict parse of a complete JSON document.
    @raise Parse_error on malformed input or trailing bytes. *)

(** Accessors (total; [None] on shape mismatch). *)

val member : string -> t -> t option
val to_int_opt : t -> int option
val to_float_opt : t -> float option
val to_string_opt : t -> string option
