(** Opened by every library under [lib/] (the [-open] flag in
    [lib/dune]), so these names shadow the stdlib's there.

    - [=], [<>] and [compare] take [int]s.  Any other type is compared
      by its module's [equal]/[compare] ([String.equal], [Lsn.equal],
      [Option.equal], ...), never structurally: a structural compare
      of a record reads its transient mutable fields.  [Hashtbl.hash]
      takes an [int] for the same reason.
    - [Random] and [Sys.time] carry the [nondet] alert and [Obj] the
      [unsafe] alert, which [lib/dune] makes errors.  Seed replay
      needs every draw from a seeded [Rng] stream and every time from
      the simulated clock.

    [Stdlib] is shadowed too, so [Stdlib.compare] or
    [Stdlib.Random.int] gets the same treatment. *)

external ( = ) : int -> int -> bool = "%equal"
external ( <> ) : int -> int -> bool = "%notequal"
external compare : int -> int -> int = "%compare"

module Hashtbl : sig
  include module type of struct
    include Stdlib.Hashtbl
  end

  val hash : int -> int
end

module Random = Stdlib.Random
[@@alert nondet "stdlib Random breaks seed replay: draw from an Rng stream"]

module Obj = Stdlib.Obj [@@alert unsafe "Obj voids the invariants the types keep"]

module Sys : sig
  include module type of struct
    include Stdlib.Sys
  end

  val time : unit -> float
  [@@alert nondet "Sys.time reads the process clock: use the simulated clock (Env.now)"]
end

module Stdlib : sig
  include module type of struct
      include Stdlib
    end
    with module Hashtbl := Stdlib.Hashtbl
     and module Random := Stdlib.Random
     and module Obj := Stdlib.Obj
     and module Sys := Stdlib.Sys

  external ( = ) : int -> int -> bool = "%equal"
  external ( <> ) : int -> int -> bool = "%notequal"
  external compare : int -> int -> int = "%compare"

  module Hashtbl = Hashtbl

  module Random = Stdlib.Random
  [@@alert nondet "stdlib Random breaks seed replay: draw from an Rng stream"]

  module Obj = Stdlib.Obj [@@alert unsafe "Obj voids the invariants the types keep"]
  module Sys = Sys
end
