type summary = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p95 : float;
  p99 : float;
}

let empty_summary =
  { count = 0; mean = 0.; stddev = 0.; min = 0.; max = 0.; p50 = 0.; p90 = 0.; p95 = 0.; p99 = 0. }

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else
    let idx = int_of_float (p *. float_of_int (n - 1)) in
    sorted.(idx)

let summarize samples =
  let n = Array.length samples in
  if n = 0 then empty_summary
  else begin
    let sorted = Array.copy samples in
    Array.sort Float.compare sorted;
    let sum = Array.fold_left ( +. ) 0. sorted in
    let mean = sum /. float_of_int n in
    let sq = Array.fold_left (fun acc x -> acc +. ((x -. mean) *. (x -. mean))) 0. sorted in
    let stddev = if n > 1 then sqrt (sq /. float_of_int (n - 1)) else 0. in
    {
      count = n;
      mean;
      stddev;
      min = sorted.(0);
      max = sorted.(n - 1);
      p50 = percentile sorted 0.50;
      p90 = percentile sorted 0.90;
      p95 = percentile sorted 0.95;
      p99 = percentile sorted 0.99;
    }
  end

let pp_summary ppf s =
  Format.fprintf ppf "n=%d mean=%.3f sd=%.3f min=%.3f p50=%.3f p90=%.3f p95=%.3f p99=%.3f max=%.3f"
    s.count s.mean s.stddev s.min s.p50 s.p90 s.p95 s.p99 s.max

