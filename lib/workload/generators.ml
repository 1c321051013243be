module Rng = Repro_util.Rng
module Zipf = Repro_util.Zipf

type mix = {
  ops_per_txn : int;
  update_fraction : float;
  remote_fraction : float;
  theta : float;
  savepoint_fraction : float;
  abort_fraction : float;
}

let default_mix =
  {
    ops_per_txn = 8;
    update_fraction = 0.5;
    remote_fraction = 0.3;
    theta = 0.;
    savepoint_fraction = 0.;
    abort_fraction = 0.;
  }

(* Optionally bracket the script's second half in a savepoint that is
   rolled back, and/or end it with a voluntary abort. *)
let decorate rng mix actions =
  let actions =
    if Rng.chance rng mix.savepoint_fraction then begin
      let n = List.length actions in
      let first = List.filteri (fun i _ -> i < n / 2) actions in
      let second = List.filteri (fun i _ -> i >= n / 2) actions in
      first @ (Op.Savepoint "mid" :: second) @ [ Op.Rollback_to "mid" ]
    end
    else actions
  in
  if Rng.chance rng mix.abort_fraction then actions @ [ Op.Abort_self ] else actions

(* Cells live at 8-byte-aligned offsets; using several per page makes
   before-images small while keeping multiple txns per page plausible. *)
let cell_offset rng = 8 * Rng.int rng 16

(* Pages are pre-flattened to an array per partition: a sample is one
   binary search + one array index, not an O(pages) [List.nth] walk.
   The RNG draw sequence is unchanged, so scripts are bit-identical. *)
let pick_zipf rng zipf pages = pages.(Zipf.sample zipf rng)

let action_of rng mix pid =
  let off = cell_offset rng in
  if Rng.chance rng mix.update_fraction then
    Op.Update { pid; off; delta = Int64.of_int (1 + Rng.int rng 100) }
  else Op.Read { pid; off }

let partitioned rng ~pages_by_owner ~clients ~txns_per_client ~mix =
  if List.is_empty pages_by_owner then invalid_arg "Generators.partitioned: no partitions";
  let owners = Array.of_list pages_by_owner in
  let page_arrays = Array.map (fun (_, pages) -> Array.of_list pages) owners in
  let zipfs =
    Array.map (fun pages -> Zipf.create ~n:(Array.length pages) ~theta:mix.theta) page_arrays
  in
  List.concat_map
    (fun client ->
      (* Home partition: clients cycle over the owner list. *)
      let home = client mod Array.length owners in
      List.init txns_per_client (fun _ ->
          let actions =
            List.init mix.ops_per_txn (fun _ ->
                let part =
                  if Rng.chance rng mix.remote_fraction then Rng.int rng (Array.length owners)
                  else home
                in
                action_of rng mix (pick_zipf rng zipfs.(part) page_arrays.(part)))
          in
          { Op.node = client; actions = decorate rng mix actions }))
    clients

let hotspot rng ~pages ~clients ~txns_per_client ~mix =
  if List.is_empty pages then invalid_arg "Generators.hotspot: no pages";
  let page_array = Array.of_list pages in
  let zipf = Zipf.create ~n:(Array.length page_array) ~theta:mix.theta in
  List.concat_map
    (fun client ->
      List.init txns_per_client (fun _ ->
          let actions =
            List.init mix.ops_per_txn (fun _ -> action_of rng mix (pick_zipf rng zipf page_array))
          in
          { Op.node = client; actions = decorate rng mix actions }))
    clients

let checkout rng ~pages ~client ~documents ~revisions =
  if List.length pages < documents then invalid_arg "Generators.checkout: not enough pages";
  let docs = List.filteri (fun i _ -> i < documents) pages in
  List.init revisions (fun _ ->
      let actions =
        List.concat_map
          (fun pid ->
            [
              Op.Read { pid; off = 0 };
              Op.Update { pid; off = cell_offset rng; delta = 1L };
            ])
          docs
      in
      { Op.node = client; actions })

let ping_pong ~pages ~nodes:(a, b) ~rounds =
  List.init (2 * rounds) (fun i ->
      let node = if i mod 2 = 0 then a else b in
      let actions = List.map (fun pid -> Op.Update { pid; off = 0; delta = 1L }) pages in
      { Op.node; actions })
