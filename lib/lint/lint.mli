(** cbl-lint: parse-level static analysis of the repo's own protocol
    rules.

    The engine parses every [.ml]/[.mli] under the requested paths with
    [compiler-libs] ([Parse] over the Parsetree — no type-checking, so
    no build-order coupling) and runs a registry of {!rule}s.  Each rule
    reports {!finding}s with a precise [file:line:col] location.

    A finding can be silenced only inline, with an attribute naming the
    rule id — [(expr [@cbl.lint.allow "rule-id"])] on an expression,
    [[@@cbl.lint.allow "rule-id"]] on a binding, or a floating
    [[@@@cbl.lint.allow "rule-id"]] for the whole file — so every
    exception sits, with its reason, next to the code it excuses. *)

type severity = Error | Warning

type finding = {
  rule : string;
  severity : severity;
  file : string;  (** root-relative path, ['/']-separated *)
  line : int;  (** 1-based *)
  col : int;  (** 0-based, as the compiler prints them *)
  msg : string;
}

type ast = Impl of Parsetree.structure | Intf of Parsetree.signature

type source = { rel : string; ast : ast }
(** One successfully parsed file.  [rel] is the root-relative path;
    rules key their scoping decisions off it. *)

type ctx = {
  root : string;  (** the repo root [run] was pointed at *)
  sources : source list;  (** parsed files, in path order *)
  report :
    ?severity:severity -> rule:string -> file:string -> line:int -> col:int -> string -> unit;
}

val report_loc : ctx -> ?severity:severity -> rule:string -> Location.t -> string -> unit
(** Report at the start of a Parsetree location (whose [pos_fname] is
    the root-relative path the engine parsed under). *)

type rule = { id : string; doc : string; check : ctx -> unit }

type result = {
  findings : finding list;  (** unsuppressed, sorted by file/line/col *)
  files_scanned : int;
  suppressed : int;  (** silenced by an inline [@cbl.lint.allow] *)
  rule_seconds : (string * float) list;
      (** per-rule wall time under [clock], in registry order; all zero
          when no clock is injected *)
}

val parse_tree :
  root:string -> paths:string list -> string list * source list * finding list
(** Phase 1 alone: [(files, sources, parse_findings)].  The bench uses
    it to time parsing separately from summary extraction and rules. *)

val run :
  ?clock:(unit -> float) ->
  root:string ->
  paths:string list ->
  rules:rule list ->
  unit ->
  result
(** Lint [paths] (files or directories, relative to [root]; [_build]
    and dot-directories are skipped).  Files that fail to parse yield a
    ["parse-error"] finding rather than aborting the run.  [clock] is
    injected by callers that may read wall time (the library itself must
    stay deterministic under the repo's own rng-discipline rule); it
    feeds the per-rule timing in {!result.rule_seconds}. *)

val ok : result -> bool
(** No findings at all — the gate CI exits on. *)

val render_finding : finding -> string
(** [file:line:col: severity [rule] msg], the human console line. *)

val result_to_json : rules:rule list -> result -> Repro_obs.Json.t
(** The [LINT_REPORT.json] object: tool, rule ids, counts, findings. *)
