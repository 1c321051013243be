module Rng = Repro_util.Rng
module Zipf = Repro_util.Zipf

(* Named workload profiles for big-cluster runs (E14 / `cblsim scale`).

   [Generators] builds small hand-shaped workloads; this layer names a
   handful of reproducible mixes and scales them to hundreds of nodes
   and thousands of clients.  Everything is driven by the caller's RNG
   (hand a [Rng.split] substream in), so a (profile, seed, shape) triple
   is a complete, deterministic description of the workload. *)

type txn_size =
  | Fixed of int
  | Uniform of int * int
  | Geometric of { mean : int; cap : int }

type profile = {
  name : string;
  description : string;
  theta : float;
  owner_theta : float;
  update_fraction : float;
  remote_fraction : float;
  txn_size : txn_size;
}

let presets =
  [
    {
      name = "uniform";
      description = "uniform page access, balanced partitions, fixed 8-op txns";
      theta = 0.;
      owner_theta = 0.;
      update_fraction = 0.5;
      remote_fraction = 0.2;
      txn_size = Fixed 8;
    };
    {
      name = "zipf-hot";
      description = "Zipf(0.9) hot pages inside each partition, balanced partitions";
      theta = 0.9;
      owner_theta = 0.;
      update_fraction = 0.5;
      remote_fraction = 0.2;
      txn_size = Fixed 8;
    };
    {
      name = "hot-owner";
      description = "remote traffic skewed Zipf(0.9) onto a few hot owner nodes";
      theta = 0.6;
      owner_theta = 0.9;
      update_fraction = 0.5;
      remote_fraction = 0.4;
      txn_size = Fixed 8;
    };
    {
      name = "read-heavy";
      description = "90% reads, mild skew, uniform 4-12 op txns";
      theta = 0.6;
      owner_theta = 0.3;
      update_fraction = 0.1;
      remote_fraction = 0.2;
      txn_size = Uniform (4, 12);
    };
    {
      name = "write-heavy";
      description = "90% updates, mild skew, uniform 4-12 op txns";
      theta = 0.6;
      owner_theta = 0.3;
      update_fraction = 0.9;
      remote_fraction = 0.2;
      txn_size = Uniform (4, 12);
    };
    {
      name = "mixed-geometric";
      description = "skewed pages and owners, geometric txn sizes (mean 8, cap 32)";
      theta = 0.8;
      owner_theta = 0.5;
      update_fraction = 0.5;
      remote_fraction = 0.3;
      txn_size = Geometric { mean = 8; cap = 32 };
    };
  ]

let names () = List.map (fun p -> p.name) presets
let find name = List.find_opt (fun p -> String.equal p.name name) presets

let ops_per_txn rng = function
  | Fixed n -> max 1 n
  | Uniform (lo, hi) ->
    if hi < lo then invalid_arg "Scale: uniform txn size with hi < lo";
    max 1 (lo + Rng.int rng (hi - lo + 1))
  | Geometric { mean; cap } ->
    (* trials-to-first-success with success probability 1/mean, capped:
       the classic long-tailed transaction-size model *)
    if mean < 1 then invalid_arg "Scale: geometric txn size needs mean >= 1";
    let p = 1. /. float_of_int mean in
    let u = Rng.float rng 1.0 in
    let draw = 1 + int_of_float (Float.log1p (-.u) /. Float.log1p (-.p)) in
    max 1 (min cap draw)

let cell_offset rng = 8 * Rng.int rng 16

(* Scale [clients] scripted clients over the partitions: each client
   homes at partition (client mod partitions) and its transactions mix
   home accesses with remote ones.  Remote partitions are drawn from a
   Zipf over the owner list ([owner_theta]) — the hot-owner imbalance —
   while pages inside a partition are drawn Zipf([theta]).  Op count per
   transaction follows the profile's [txn_size] distribution. *)
let scripts rng profile ~pages_by_owner ~clients ~txns_per_client =
  if List.is_empty pages_by_owner then invalid_arg "Scale.scripts: no partitions";
  if clients <= 0 then invalid_arg "Scale.scripts: need at least one client";
  let owners = Array.of_list pages_by_owner in
  let nparts = Array.length owners in
  let nodes = Array.map fst owners in
  let page_arrays = Array.map (fun (_, pages) -> Array.of_list pages) owners in
  Array.iter
    (fun pages ->
      if Array.length pages = 0 then invalid_arg "Scale.scripts: empty partition")
    page_arrays;
  let zipfs =
    Array.map
      (fun pages -> Zipf.create ~n:(Array.length pages) ~theta:profile.theta)
      page_arrays
  in
  let owner_zipf = Zipf.create ~n:nparts ~theta:profile.owner_theta in
  List.concat
    (List.init clients (fun client ->
         let home = client mod nparts in
         List.init txns_per_client (fun _ ->
             let ops = ops_per_txn rng profile.txn_size in
             let actions =
               List.init ops (fun _ ->
                   let part =
                     if Rng.chance rng profile.remote_fraction then Zipf.sample owner_zipf rng
                     else home
                   in
                   let pages = page_arrays.(part) in
                   let pid = pages.(Zipf.sample zipfs.(part) rng) in
                   let off = cell_offset rng in
                   if Rng.chance rng profile.update_fraction then
                     Op.Update { pid; off; delta = Int64.of_int (1 + Rng.int rng 100) }
                   else Op.Read { pid; off })
             in
             { Op.node = nodes.(home); actions })))
