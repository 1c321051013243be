(** Experiments as data.

    A spec holds an experiment's id, title and paper claim, its quick
    and full sweep, a run function from one sweep point to typed rows,
    the table columns as [(header, projection)] pairs over those rows,
    and the paper's claims as predicates over them.  {!run} is the one
    runner: it sweeps, renders the {!Report.t} and judges every claim. *)

type ('p, 'r) claim
(** A predicate over the rows ['r] of a sweep over points ['p]. *)

val silent : string -> ('r list -> bool) -> ('p, 'r) claim
(** [silent name holds]: judged, never printed. *)

val shown :
  ?note:('r list -> string) ->
  ?smoke:('r list -> string) ->
  ?each:('p -> string) ->
  string ->
  ('r list -> bool) ->
  ('p, 'r) claim
(** [shown name holds]: judged and printed as a note, ["PASS: "] or
    ["FAIL: "] then [note rows] ([name] by default).  With [smoke] the
    claim is a full-sweep target: a quick run prints [smoke rows] alone
    and leaves it unjudged.  With [each] it is judged per sweep point on
    that point's rows, [each point] printed as the subject after the
    verdict word. *)

type t
(** An experiment, its point and row types hidden. *)

val make :
  id:string ->
  title:string ->
  claim:string ->
  quick:'p list ->
  full:'p list ->
  run:(quick:bool -> 'p -> 'r list) ->
  columns:(string * ('r -> string)) list ->
  ?claims:('p, 'r) claim list ->
  ?notes:('r list -> string list) ->
  ?data:(('p * 'r list) list -> (string * Repro_obs.Json.t) list) ->
  unit ->
  t
(** [notes] follow the printed claims; [data] maps each point with its
    rows to the report's extra JSON. *)

val id : t -> string

type verdict = {
  experiment : string;
  claim : string;  (** the claim's name; an [each] claim adds its subject *)
  pass : bool;
  judged : bool;  (** false only for a full-sweep target in a quick run *)
}

val run : ?quick:bool -> t -> Report.t * verdict list
(** Run the quick or (by default) full sweep, render, judge. *)

val failed : verdict list -> verdict list
(** The judged verdicts that did not pass. *)

val word : bool -> string
(** ["PASS"] or ["FAIL"], for a column showing a per-row verdict. *)
