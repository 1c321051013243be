type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed =
  (* Avoid the all-zero fixed point and decorrelate small seeds. *)
  { state = Int64.add (Int64.of_int seed) 0x5851F42D4C957F2DL }

(* SplitMix64 output function (Steele, Lea, Flood 2014). *)
let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let next_int64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

let split t =
  let seed = next_int64 t in
  { state = seed }

let int t bound =
  assert (bound > 0);
  (* OCaml ints are 63-bit: mask after truncation to stay non-negative. *)
  let r = Int64.to_int (next_int64 t) land max_int in
  r mod bound

let int_in_range t ~lo ~hi =
  assert (lo <= hi);
  lo + int t (hi - lo + 1)

let float t bound =
  let r = Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) in
  (* 53 significant bits, matching an IEEE double's mantissa. *)
  r /. 9007199254740992.0 *. bound

let chance t p =
  if p <= 0. then false
  else if p >= 1. then true
  else float t 1.0 < p

let pick t arr =
  assert (Array.length arr > 0);
  arr.(int t (Array.length arr))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
