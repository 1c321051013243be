(* Tests for lock modes and the owner/global and client/local lock
   tables.  Conflicts are resolved by the driver's wound-wait (see
   test_workload.ml). *)

module Mode = Repro_lock.Mode
module Global_locks = Repro_lock.Global_locks
module Local_locks = Repro_lock.Local_locks
module Page_id = Repro_storage.Page_id

let pid slot = Page_id.make ~owner:0 ~slot

(* ---- Mode ---- *)

let test_mode_tables () =
  Alcotest.(check bool) "S/S compatible" true (Mode.compatible Mode.S Mode.S);
  Alcotest.(check bool) "S/X not" false (Mode.compatible Mode.S Mode.X);
  Alcotest.(check bool) "X/S not" false (Mode.compatible Mode.X Mode.S);
  Alcotest.(check bool) "X covers S" true (Mode.covers Mode.X Mode.S);
  Alcotest.(check bool) "S covers S" true (Mode.covers Mode.S Mode.S);
  Alcotest.(check bool) "S does not cover X" false (Mode.covers Mode.S Mode.X);
  Alcotest.(check bool) "max" true (Mode.equal Mode.X (Mode.max Mode.S Mode.X))

(* ---- Global_locks (owner side) ---- *)

let test_global_grant_and_conflict () =
  let g = Global_locks.create ~owner:0 in
  (match Global_locks.request g ~node:1 ~pid:(pid 0) ~mode:Mode.S with
  | Global_locks.Granted -> ()
  | Needs_callback _ -> Alcotest.fail "fresh grant must succeed");
  Global_locks.grant g ~node:1 ~pid:(pid 0) ~mode:Mode.S;
  Global_locks.grant g ~node:2 ~pid:(pid 0) ~mode:Mode.S;
  (* S/S coexist; X needs callbacks to both *)
  (match Global_locks.request g ~node:3 ~pid:(pid 0) ~mode:Mode.X with
  | Global_locks.Needs_callback { holders } ->
    Alcotest.(check int) "two holders to call back" 2 (List.length holders)
  | Granted -> Alcotest.fail "X must conflict");
  Global_locks.check_invariants g

let test_global_requester_excluded () =
  let g = Global_locks.create ~owner:0 in
  Global_locks.grant g ~node:1 ~pid:(pid 0) ~mode:Mode.S;
  (* the requester's own S does not block its upgrade *)
  match Global_locks.request g ~node:1 ~pid:(pid 0) ~mode:Mode.X with
  | Global_locks.Granted -> ()
  | Needs_callback _ -> Alcotest.fail "own lock must not conflict"

let test_global_covering_grant_is_immediate () =
  let g = Global_locks.create ~owner:0 in
  Global_locks.grant g ~node:1 ~pid:(pid 0) ~mode:Mode.X;
  match Global_locks.request g ~node:1 ~pid:(pid 0) ~mode:Mode.S with
  | Global_locks.Granted -> ()
  | Needs_callback _ -> Alcotest.fail "X covers S"

let test_global_demote_release () =
  let g = Global_locks.create ~owner:0 in
  Global_locks.grant g ~node:1 ~pid:(pid 0) ~mode:Mode.X;
  Global_locks.demote_to_s g ~node:1 ~pid:(pid 0);
  Alcotest.(check bool) "demoted" true
    (Global_locks.holder_mode g ~node:1 ~pid:(pid 0) = Some Mode.S);
  Global_locks.release g ~node:1 ~pid:(pid 0);
  Alcotest.(check bool) "released" true (Global_locks.holders g ~pid:(pid 0) = [])

let test_global_crash_lock_rules () =
  (* §2.3.3: shared locks of a crashed node are released, exclusive retained *)
  let g = Global_locks.create ~owner:0 in
  Global_locks.grant g ~node:9 ~pid:(pid 0) ~mode:Mode.S;
  Global_locks.grant g ~node:9 ~pid:(pid 1) ~mode:Mode.X;
  Global_locks.grant g ~node:9 ~pid:(pid 2) ~mode:Mode.S;
  let released = Global_locks.release_all_shared_of_node g ~node:9 in
  Alcotest.(check int) "two shared released" 2 (List.length released);
  Alcotest.(check (list int)) "exclusive retained" [ 1 ]
    (List.map (fun p -> p.Page_id.slot) (Global_locks.x_pages_of_node g ~node:9));
  Alcotest.(check int) "held-by listing" 1 (List.length (Global_locks.locks_held_by_node g ~node:9))

let test_global_x_holder () =
  let g = Global_locks.create ~owner:0 in
  Global_locks.grant g ~node:4 ~pid:(pid 0) ~mode:Mode.X;
  Alcotest.(check (option int)) "x holder" (Some 4) (Global_locks.x_holder g ~pid:(pid 0))

(* ---- Local_locks (client side) ---- *)

let test_local_cache_and_acquire () =
  let l = Local_locks.create () in
  Alcotest.(check bool) "no cover initially" false (Local_locks.cache_covers l (pid 0) Mode.S);
  Local_locks.set_cached_mode l (pid 0) Mode.X;
  Alcotest.(check bool) "X covers S" true (Local_locks.cache_covers l (pid 0) Mode.S);
  (match Local_locks.acquire l ~txn:1 ~pid:(pid 0) ~mode:Mode.S with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "grant expected");
  (match Local_locks.acquire l ~txn:2 ~pid:(pid 0) ~mode:Mode.X with
  | Error { Local_locks.holders } -> Alcotest.(check (list int)) "conflict names T1" [ 1 ] holders
  | Ok () -> Alcotest.fail "conflict expected");
  (* T1 upgrades its own S to X *)
  (match Local_locks.acquire l ~txn:1 ~pid:(pid 0) ~mode:Mode.X with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "self-upgrade expected");
  Local_locks.check_invariants l

let test_local_release_keeps_cache () =
  let l = Local_locks.create () in
  Local_locks.set_cached_mode l (pid 0) Mode.X;
  ignore (Local_locks.acquire l ~txn:1 ~pid:(pid 0) ~mode:Mode.X);
  Local_locks.release_txn l ~txn:1;
  Alcotest.(check bool) "txn locks gone" false (Local_locks.any_txn_holds l (pid 0));
  (* inter-transaction caching: the node-level lock survives *)
  Alcotest.(check bool) "cached mode retained" true (Local_locks.cache_covers l (pid 0) Mode.X)

let test_local_demote_and_drop () =
  let l = Local_locks.create () in
  Local_locks.set_cached_mode l (pid 0) Mode.X;
  Local_locks.demote_cached_to_s l (pid 0);
  Alcotest.(check bool) "demoted" true (Local_locks.cached_mode l (pid 0) = Some Mode.S);
  Local_locks.drop_cached l (pid 0);
  Alcotest.(check bool) "dropped" true (Local_locks.cached_mode l (pid 0) = None)

let test_local_acquire_requires_cover () =
  let l = Local_locks.create () in
  Local_locks.set_cached_mode l (pid 0) Mode.S;
  Alcotest.(check bool) "raises without cover" true
    (try
       ignore (Local_locks.acquire l ~txn:1 ~pid:(pid 0) ~mode:Mode.X);
       false
     with Invalid_argument _ -> true)

let test_local_revoke_pending () =
  let l = Local_locks.create () in
  Local_locks.set_cached_mode l (pid 0) Mode.X;
  Alcotest.(check bool) "none" true (Local_locks.revoke_pending l (pid 0) = None);
  Local_locks.set_revoke_pending l (pid 0) ~mode:Mode.X ~txn:10 ~node:2;
  (* an older requester takes precedence *)
  Local_locks.set_revoke_pending l (pid 0) ~mode:Mode.S ~txn:5 ~node:3;
  (match Local_locks.revoke_pending l (pid 0) with
  | Some (m, txn, node) ->
    Alcotest.(check int) "oldest kept" 5 txn;
    Alcotest.(check int) "its node" 3 node;
    Alcotest.(check bool) "its mode" true (Mode.equal m Mode.S)
  | None -> Alcotest.fail "mark expected");
  (* a younger one does not displace it *)
  Local_locks.set_revoke_pending l (pid 0) ~mode:Mode.X ~txn:99 ~node:1;
  Alcotest.(check bool) "still oldest" true
    (match Local_locks.revoke_pending l (pid 0) with Some (_, 5, _) -> true | _ -> false);
  Local_locks.clear_revoke_pending l (pid 0);
  Alcotest.(check bool) "cleared" true (Local_locks.revoke_pending l (pid 0) = None)

(* The early-release registry: a release registers its releaser per
   page in the same step, the newest releaser wins, settling leaves a
   page a later releaser took over alone, and a crash wipes it. *)
let test_local_early_release_registry () =
  let l = Local_locks.create () in
  List.iter (fun s -> Local_locks.set_cached_mode l (pid s) Mode.X) [ 0; 1 ];
  ignore (Local_locks.acquire l ~txn:1 ~pid:(pid 0) ~mode:Mode.X);
  ignore (Local_locks.acquire l ~txn:1 ~pid:(pid 1) ~mode:Mode.X);
  Alcotest.(check int) "both released" 2 (List.length (Local_locks.release_txn_early l ~txn:1));
  Alcotest.(check (option int)) "page 0 recorded" (Some 1) (Local_locks.early_releaser l (pid 0));
  Alcotest.(check (option int)) "page 1 recorded" (Some 1) (Local_locks.early_releaser l (pid 1));
  (* T2 acquires page 0 after T1's release and releases it early too *)
  ignore (Local_locks.acquire l ~txn:2 ~pid:(pid 0) ~mode:Mode.X);
  ignore (Local_locks.release_txn_early l ~txn:2);
  Alcotest.(check (option int)) "newest releaser wins" (Some 2)
    (Local_locks.early_releaser l (pid 0));
  Local_locks.settle_early l ~txn:1;
  Alcotest.(check (option int)) "overwritten page keeps T2" (Some 2)
    (Local_locks.early_releaser l (pid 0));
  Alcotest.(check bool) "T1's own page settled" false (Local_locks.released_early l (pid 1));
  Local_locks.clear l;
  Alcotest.(check bool) "clear wipes the registry" false (Local_locks.released_early l (pid 0));
  Local_locks.settle_early l ~txn:2;
  Alcotest.(check (option int)) "settling after clear is a no-op" None
    (Local_locks.early_releaser l (pid 0))

let test_local_cached_pages_owned_by () =
  let l = Local_locks.create () in
  Local_locks.set_cached_mode l (Page_id.make ~owner:1 ~slot:0) Mode.S;
  Local_locks.set_cached_mode l (Page_id.make ~owner:2 ~slot:0) Mode.X;
  Alcotest.(check int) "owned-by filter" 1 (List.length (Local_locks.cached_pages_owned_by l 2))

(* ---- the per-node indexes agree with their tables ---- *)

(* Random operation sequences over a few nodes and slots: after every
   step, each index-answered listing must equal a brute-force filter of
   the table it indexes. *)

type op =
  | Grant of int * int * Mode.t
  | Release of int * int
  | Demote of int * int
  | Release_shared of int
  | Set_cached of int * int * Mode.t
  | Revoke_pending of int * int
  | Drop_cached of int * int
  | Clear

let nodes = 6
let slots = 24

let gen_op =
  QCheck.Gen.(
    let node = int_bound (nodes - 1) and slot = int_bound (slots - 1) in
    let mode = oneofl [ Mode.S; Mode.X ] in
    frequency
      [
        (6, map3 (fun n s m -> Grant (n, s, m)) node slot mode);
        (3, map2 (fun n s -> Release (n, s)) node slot);
        (2, map2 (fun n s -> Demote (n, s)) node slot);
        (1, map (fun n -> Release_shared n) node);
        (6, map3 (fun o s m -> Set_cached (o, s, m)) node slot mode);
        (2, map2 (fun o s -> Revoke_pending (o, s)) node slot);
        (3, map2 (fun o s -> Drop_cached (o, s)) node slot);
        (1, return Clear);
      ])

let by_page l = List.sort (fun (a, _) (b, _) -> Page_id.compare a b) l
let pids l = List.sort Page_id.compare l

let global_agrees g =
  Global_locks.check_invariants g;
  for node = 0 to nodes - 1 do
    let brute =
      List.concat_map
        (fun pid ->
          List.filter_map
            (fun (n, m) -> if n = node then Some (pid, m) else None)
            (Global_locks.holders g ~pid))
        (Global_locks.pages g)
    in
    if by_page (Global_locks.locks_held_by_node g ~node) <> by_page brute then
      QCheck.Test.fail_reportf "locks_held_by_node %d disagrees with the table" node;
    let x = List.filter_map (fun (p, m) -> if Mode.equal m Mode.X then Some p else None) brute in
    if pids (Global_locks.x_pages_of_node g ~node) <> pids x then
      QCheck.Test.fail_reportf "x_pages_of_node %d disagrees with the table" node
  done

let local_agrees l =
  Local_locks.check_invariants l;
  for owner = 0 to nodes - 1 do
    let brute = List.filter (fun (p, _) -> Page_id.owner p = owner) (Local_locks.cached_pages l) in
    if by_page (Local_locks.cached_pages_owned_by l owner) <> by_page brute then
      QCheck.Test.fail_reportf "cached_pages_owned_by %d disagrees with the table" owner
  done

let apply g l = function
  | Grant (n, s, mode) -> (
    (* the node layer grants only what [request] allows *)
    match Global_locks.request g ~node:n ~pid:(pid s) ~mode with
    | Global_locks.Granted -> Global_locks.grant g ~node:n ~pid:(pid s) ~mode
    | Needs_callback _ -> ())
  | Release (n, s) -> Global_locks.release g ~node:n ~pid:(pid s)
  | Demote (n, s) -> Global_locks.demote_to_s g ~node:n ~pid:(pid s)
  | Release_shared node ->
    let shared =
      List.filter_map
        (fun (p, m) -> if Mode.equal m Mode.S then Some p else None)
        (Global_locks.locks_held_by_node g ~node)
    in
    if pids (Global_locks.release_all_shared_of_node g ~node) <> pids shared then
      QCheck.Test.fail_reportf "release_all_shared_of_node %d released the wrong pages" node
  | Set_cached (o, s, mode) -> Local_locks.set_cached_mode l (Page_id.make ~owner:o ~slot:s) mode
  | Revoke_pending (o, s) ->
    Local_locks.set_revoke_pending l (Page_id.make ~owner:o ~slot:s) ~mode:Mode.X ~txn:1 ~node:o
  | Drop_cached (o, s) -> Local_locks.drop_cached l (Page_id.make ~owner:o ~slot:s)
  | Clear ->
    Global_locks.clear g;
    Local_locks.clear l

let prop_indexes_agree =
  QCheck.Test.make ~name:"holder and owner indexes agree with their tables" ~count:200
    (QCheck.make QCheck.Gen.(list_size (int_range 0 300) gen_op))
    (fun ops ->
      let g = Global_locks.create ~owner:0 and l = Local_locks.create () in
      List.iter
        (fun op ->
          apply g l op;
          global_agrees g;
          local_agrees l)
        ops;
      true)

let suite =
  [
    ("mode tables", `Quick, test_mode_tables);
    ("global grant and conflict", `Quick, test_global_grant_and_conflict);
    ("global requester excluded", `Quick, test_global_requester_excluded);
    ("global covering grant", `Quick, test_global_covering_grant_is_immediate);
    ("global demote/release", `Quick, test_global_demote_release);
    ("global crash lock rules (2.3.3)", `Quick, test_global_crash_lock_rules);
    ("global x holder", `Quick, test_global_x_holder);
    ("local cache and acquire", `Quick, test_local_cache_and_acquire);
    ("local release keeps cache", `Quick, test_local_release_keeps_cache);
    ("local demote and drop", `Quick, test_local_demote_and_drop);
    ("local acquire requires cover", `Quick, test_local_acquire_requires_cover);
    ("local revoke pending", `Quick, test_local_revoke_pending);
    ("local owned-by filter", `Quick, test_local_cached_pages_owned_by);
    ("local early-release registry", `Quick, test_local_early_release_registry);
    QCheck_alcotest.to_alcotest prop_indexes_agree;
  ]
