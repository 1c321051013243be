(** The operation DSL: transactions as scripts.

    A workload is a list of {!script}s — each a transaction to run at a
    given node, expressed as a list of actions.  The {!Driver} executes
    them step by step, which is what lets a blocked step simply be
    retried later (the simulator's substitute for a waiting thread). *)

open Repro_storage

type action =
  | Read of { pid : Page_id.t; off : int }
  | Update of { pid : Page_id.t; off : int; delta : int64 }
      (** logical increment of an 8-byte cell *)
  | Write of { pid : Page_id.t; off : int; data : string }
      (** physical byte write *)
  | Savepoint of string
  | Rollback_to of string
  | Abort_self  (** the transaction voluntarily aborts (ends the script) *)

type script = { node : int; actions : action list }

val pp_script : Format.formatter -> script -> unit

val pages_touched : script -> Page_id.t list
(** Distinct pages the script reads or writes. *)

val compare_cell : Page_id.t * int -> Page_id.t * int -> int
(** Page, then offset: the stdlib's structural order on a cell. *)

val cells_updated : script -> (Page_id.t * int) list
(** Distinct (page, offset) cells the script updates with deltas, in
    [compare_cell] order. *)
