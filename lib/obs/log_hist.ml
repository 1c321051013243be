(* HDR-style histogram: each power-of-two octave is split into SUB
   linear sub-buckets, giving a worst-case relative quantile error of
   1/SUB regardless of magnitude.  Built on frexp so there is no
   float->log call on the record path. *)

let sub = 16
let e_min = -40 (* 2^-40 s ≈ 1 ps: below any simulated latency *)
let e_max = 24 (* 2^24 s ≈ 194 days: above any simulated duration *)
let octaves = e_max - e_min + 1
let buckets = (octaves * sub) + 2 (* + underflow (0/negative) + overflow *)

type t = {
  counts : int array;
  mutable n : int;
  mutable sum : float;
  mutable min : float;
  mutable max : float;
}

let create () = { counts = Array.make buckets 0; n = 0; sum = 0.; min = infinity; max = neg_infinity }

let index_of v =
  if not (v > 0.) then 0 (* zero, negatives, NaN: underflow bucket *)
  else begin
    let m, e = Float.frexp v in
    if e < e_min then 0
    else if e > e_max then buckets - 1
    else begin
      (* m in [0.5, 1): map to sub-bucket 0..sub-1 *)
      let s = int_of_float ((m -. 0.5) *. 2. *. float_of_int sub) in
      let s = if s >= sub then sub - 1 else s in
      1 + ((e - e_min) * sub) + s
    end
  end

(* Representative value for a bucket: the midpoint of its range. *)
let value_of_index i =
  if i = 0 then 0.
  else if i = buckets - 1 then Float.ldexp 1. e_max
  else begin
    let i = i - 1 in
    let e = (i / sub) + e_min in
    let s = i mod sub in
    let mid = 0.5 +. ((float_of_int s +. 0.5) /. (2. *. float_of_int sub)) in
    Float.ldexp mid e
  end

let record t v =
  let i = index_of v in
  t.counts.(i) <- t.counts.(i) + 1;
  t.n <- t.n + 1;
  t.sum <- t.sum +. v;
  if v < t.min then t.min <- v;
  if v > t.max then t.max <- v

let count t = t.n
let total t = t.sum
let min_value t = if t.n = 0 then 0. else t.min
let max_value t = if t.n = 0 then 0. else t.max
let mean t = if t.n = 0 then 0. else t.sum /. float_of_int t.n

let quantile t q =
  if t.n = 0 then 0.
  else begin
    let q = Float.max 0. (Float.min 1. q) in
    let rank = int_of_float (Float.round (q *. float_of_int (t.n - 1))) in
    let rec walk i seen =
      if i >= buckets then t.max
      else begin
        let seen = seen + t.counts.(i) in
        if seen > rank then
          (* clamp the bucket midpoint into the observed range *)
          Float.max t.min (Float.min t.max (value_of_index i))
        else walk (i + 1) seen
      end
    in
    walk 0 0
  end

let p50 t = quantile t 0.5
let p95 t = quantile t 0.95
let p99 t = quantile t 0.99

let to_json t =
  Json.Obj
    [
      ("count", Json.Int t.n);
      ("mean", Json.Float (mean t));
      ("min", Json.Float (min_value t));
      ("max", Json.Float (max_value t));
      ("p50", Json.Float (p50 t));
      ("p95", Json.Float (p95 t));
      ("p99", Json.Float (p99 t));
    ]

let pp ppf t =
  if t.n = 0 then Format.pp_print_string ppf "(empty)"
  else
    Format.fprintf ppf "n=%d mean=%.3gs p50=%.3gs p95=%.3gs p99=%.3gs max=%.3gs" t.n (mean t)
      (p50 t) (p95 t) (p99 t) (max_value t)
