type t = { owner : int; slot : int }

let make ~owner ~slot = { owner; slot }
let owner t = t.owner

let compare a b =
  match Int.compare a.owner b.owner with 0 -> Int.compare a.slot b.slot | c -> c

let equal a b = a.owner = b.owner && a.slot = b.slot
let hash t = (t.owner * 1000003) lxor t.slot
let to_string t = "P" ^ string_of_int t.owner ^ "." ^ string_of_int t.slot
let pp ppf t = Format.pp_print_string ppf (to_string t)

let encode e t =
  Repro_util.Codec.u32 e t.owner;
  Repro_util.Codec.u32 e t.slot

let decode d =
  let owner = Repro_util.Codec.read_u32 d in
  let slot = Repro_util.Codec.read_u32 d in
  { owner; slot }

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Hashed = struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end

module Map = Map.Make (Ord)
module Set = Set.Make (Ord)
module Tbl = Hashtbl.Make (Hashed)
