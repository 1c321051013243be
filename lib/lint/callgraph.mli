(** Name-resolved intra-repo call graph over {!Summary.file}s — phase
    1b of the whole-repo lint analysis.

    Nodes are top-level functions plus one synthetic [field:NAME] node
    per record field / labeled hook that stores or invokes closures;
    edges are best-effort resolutions of call sites over the untyped
    AST (see the module comment in [callgraph.ml] for the exact
    policy).  Unresolvable applied calls into repo modules land in the
    explicit {!t.unknown} bucket rather than vanishing. *)

type node = {
  id : int;
  name : string;  (** ["rel#fn"] or ["field:f"] *)
  file : string option;
  fn : Summary.fn option;  (** [None] for synthetic field nodes *)
  mutable succ : int list;
  mutable field_raises : (Summary.exn_label * Summary.loc * string) list;
}

type t = {
  nodes : node array;
  in_deg : int array;
  unknown : (string * int) list;  (** qualified name → applied-call count *)
}

type resolution = Fn_key of (string * string) | External | Unknown of string | Local

val resolve :
  module_index:(string, Summary.file) Hashtbl.t ->
  binding_exists:(string * string -> bool) ->
  Summary.file ->
  string list ->
  resolution
(** Resolve an identifier path as seen from [file]. *)

val indexes : Summary.file list -> (string, Summary.file) Hashtbl.t * (string * string -> bool)
(** The [(module_index, binding_exists)] pair {!resolve} needs. *)

val build : Summary.file list -> t

val find_field : t -> string -> int option
val node_id : t -> string * string -> int option

val to_json : t -> Repro_obs.Json.t
(** The [--dump-callgraph] object: nodes with in-degrees, edge pairs,
    and the unknown-callee bucket. *)
