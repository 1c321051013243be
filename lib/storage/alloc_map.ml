module Heap = Repro_util.Heap

type slot_state = Free of { seed : int } | Allocated

type t = {
  owner : int;
  mutable next_slot : int;
  slots : (int, slot_state) Hashtbl.t; (* slot -> state; absent = never used, seed 0 *)
  free : Heap.t; (* the [Free] slots, all below [next_slot] *)
}

let create ~owner =
  { owner; next_slot = 0; slots = Hashtbl.create 64; free = Heap.create () }

let seed_of t slot =
  match Hashtbl.find_opt t.slots slot with
  | None -> 0
  | Some (Free { seed }) -> seed
  | Some Allocated -> invalid_arg "Alloc_map: slot already allocated"

let allocate t ~page_size =
  (* Reuse the lowest free slot, else extend the database. *)
  let slot =
    if Heap.is_empty t.free then begin
      let s = t.next_slot in
      t.next_slot <- s + 1;
      s
    end
    else Heap.pop_min t.free
  in
  let seed = seed_of t slot in
  Hashtbl.replace t.slots slot Allocated;
  Page.create ~id:(Page_id.make ~owner:t.owner ~slot) ~psn:seed ~size:page_size

let deallocate t page =
  let pid = Page.id page in
  if Page_id.owner pid <> t.owner then invalid_arg "Alloc_map: page has a different owner";
  (match Hashtbl.find_opt t.slots pid.Page_id.slot with
  | Some Allocated -> ()
  | Some (Free _) | None -> invalid_arg "Alloc_map: page not allocated");
  Hashtbl.replace t.slots pid.Page_id.slot (Free { seed = Page.psn page + 1 });
  Heap.push t.free pid.Page_id.slot

let allocated t =
  Hashtbl.fold
    (fun slot state acc ->
      match state with
      | Allocated -> Page_id.make ~owner:t.owner ~slot :: acc
      | Free _ -> acc)
    t.slots []

let is_allocated t pid =
  Page_id.owner pid = t.owner
  && match Hashtbl.find_opt t.slots pid.Page_id.slot with Some Allocated -> true | _ -> false

let psn_seed t pid = seed_of t pid.Page_id.slot
