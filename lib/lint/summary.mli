(** Per-function effect summaries — phase 1 of the whole-repo lint
    analysis.

    Each top-level binding of every parsed [.ml] becomes one {!fn}
    recording the protocol-relevant effects inside it: raises and
    handlers of the retryable control exceptions, log forces and
    group-commit sweeps, early lock releases and their recording, RNG
    seeding and draws, crash points, and the intra-repo calls that
    {!Callgraph} resolves into edges. *)

(** {1 Longident helpers (shared with the per-file rules)} *)

val components : Longident.t -> string list
(** Left to right; unlike [Longident.flatten], never raises on [Lapply]. *)

val last_component : Longident.t -> string

(** {1 The summary lattice} *)

(** [Would_block] is the generic retryable label (an unrefined or
    variable reason); the others refine it. *)
type exn_label = Would_block | Node_down | Page_unavailable | Net_unreachable

val label_name : exn_label -> string

val covers : handled:exn_label list -> exn_label -> bool
(** Does a handler context with [handled] labels cover a raise of
    [label]?  Generic raises are covered by any non-empty context;
    refined raises need their own label present. *)

type loc = { line : int; col : int }

type site_kind =
  | Call of { path : string list; applied : bool }
  | Field_call of { field : string }
  | Raise of { label : exn_label }
  | Force of { name : string }
  | Sweep  (** a [Group_commit.on_force] mention *)
  | Elr_release
  | Elr_record
  | Rng_draw of { name : string }
  | Rng_seed of { name : string }

type site = {
  kind : site_kind;
  s_loc : loc;
  wired : string option;
      (** the record field / labeled hook the enclosing closure is
          stored under, if any — such sites also live on the synthetic
          [field:NAME] call-graph node *)
}

type handler = {
  h_labels : exn_label list;
  h_loc : loc;
  h_calls : string list list;
  h_fields : string list;
  h_unknown : bool;
  h_raises : exn_label list;
}
(** An explicit [Would_block] handler and what its guarded body can
    feed it with — the input of the dead-handler rule. *)

type fn = {
  fn_name : string;
  fn_loc : loc;
  handled : exn_label list;
      (** union over every unguarded exception handler in the body:
          function-granularity handler contexts *)
  sites : site list;
  handlers : handler list;
}

type file = {
  rel : string;
  module_name : string;  (** capitalized basename, the resolution key *)
  aliases : (string * string) list;  (** [module X = A.B] → [(X, B)] *)
  opens : string list;  (** opened modules: unqualified-resolution fallback *)
  fns : fn list;
}

(** {1 Extraction} *)

val of_sources : Lint.source list -> file list
(** Summaries for every implementation source. *)

(** {1 JSON ([--dump-summaries])} *)

val to_json : file list -> Repro_obs.Json.t
