(** Fixpoint propagation of exception-flow facts over the call graph —
    phase 2 of the whole-repo lint analysis, read by the [exn-flow] and
    [dead-handler] rules.

    All facts are monotone joins over finite sets, so the fixpoint is
    unique and independent of visit order; [?order] exists so the
    qcheck property can permute the sweep order and assert exactly
    that. *)

type config = { raise_impl : string list; checked : string -> bool }

type raise_site = {
  r_label : Summary.exn_label;
  r_file : string;
  r_loc : Summary.loc;
  r_fn : string;
}

module RS : Set.S with type elt = raise_site

type t = {
  graph : Callgraph.t;
  escaping : RS.t array;
  handled : (string * int * int * Summary.exn_label, unit) Hashtbl.t;
  raise_sites : raise_site list;
}

val run : ?order:int array -> config -> Callgraph.t -> t

val unhandled_raises : t -> raise_site list

val handler_live : t -> Summary.file list -> rel:string -> Summary.handler -> bool
(** Can anything the handler's guarded body reaches feed it a matching
    exception?  Conservatively [true] on anything unresolved that could
    be repo code. *)
