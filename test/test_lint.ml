(* Tests for cbl-lint: every rule gets a positive (violation caught) and
   a negative (clean idiom passes) fixture, plus the inline suppression
   escape hatch.

   Fixtures are inline source strings written into a fresh temp tree
   whose layout mimics the repo (lib/..., bin/...), because most rules
   scope on the root-relative path. *)

module Lint = Repro_lint.Lint
module Rules = Repro_lint.Rules
module Json = Repro_obs.Json

(* ---- fixture plumbing ---- *)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let fresh_root () =
  let base = Filename.temp_file "cbl_lint_test" "" in
  Sys.remove base;
  Sys.mkdir base 0o755;
  base

let write_file root (rel, content) =
  let path = Filename.concat root rel in
  mkdir_p (Filename.dirname path);
  let oc = open_out path in
  output_string oc content;
  close_out oc

(* Lint a fixture tree. *)
let lint files =
  let root = fresh_root () in
  List.iter (write_file root) files;
  Lint.run ~root ~paths:[ "lib"; "bin" ] ~rules:Rules.all ()

let findings_for rule result =
  List.filter (fun f -> f.Lint.rule = rule) result.Lint.findings

let count rule result = List.length (findings_for rule result)

let check_count msg rule expected result = Alcotest.(check int) msg expected (count rule result)

(* ---- rule 1: ipc-force-sweep (interprocedural) ---- *)

let test_force_sweep_positive () =
  let r =
    lint [ ("lib/core/foo.ml", "let commit log =\n  Log_manager.force log ~upto:3\n") ]
  in
  check_count "unswept force flagged" "ipc-force-sweep" 1 r;
  let f = List.hd (findings_for "ipc-force-sweep" r) in
  Alcotest.(check string) "file" "lib/core/foo.ml" f.Lint.file;
  Alcotest.(check int) "line" 2 f.Lint.line

let test_force_sweep_negative () =
  let r =
    lint
      [
        ( "lib/core/foo.ml",
          "let commit log gc =\n  Log_manager.force log ~upto:3;\n  Group_commit.on_force gc\n"
        );
      ]
  in
  check_count "paired force passes" "ipc-force-sweep" 0 r

let test_force_sweep_charge_variant () =
  (* The cost-charging entry point counts as a force too. *)
  let r = lint [ ("lib/core/foo.ml", "let commit env = charge_log_force env ~bytes:64\n") ] in
  check_count "charge_log_force flagged" "ipc-force-sweep" 1 r

let test_force_sweep_impl_layer_exempt () =
  (* The force implementation itself cannot call the sweep (cycle). *)
  let r =
    lint [ ("lib/wal/log_manager.ml", "let force_all t =\n  Log_manager.force t ~upto:9\n") ]
  in
  check_count "impl layer exempt" "ipc-force-sweep" 0 r

let test_force_sweep_outside_lib () =
  let r = lint [ ("bin/tool.ml", "let main log = Log_manager.force log ~upto:3\n") ] in
  check_count "bin/ not in scope" "ipc-force-sweep" 0 r

let test_force_sweep_callee_covers () =
  (* Force in one module, sweep in another, paired through a call
     edge: the per-function rule this one replaced would flag it. *)
  let r =
    lint
      [
        ("lib/core/a.ml", "let commit log gc =\n  Log_manager.force log ~upto:3;\n  B.sweep gc\n");
        ("lib/core/b.ml", "let sweep gc = Group_commit.on_force gc\n");
      ]
  in
  check_count "cross-module force/sweep split passes" "ipc-force-sweep" 0 r

let test_force_sweep_split_still_caught () =
  (* The split without the sweep: interprocedural analysis must not
     grant a pass just because the force moved into a helper. *)
  let r =
    lint
      [
        ("lib/core/a.ml", "let commit log =\n  B.force_tail log 3\n");
        ("lib/core/b.ml", "let force_tail log lsn = Log_manager.force log ~upto:lsn\n");
      ]
  in
  check_count "unswept helper force flagged" "ipc-force-sweep" 1 r;
  let f = List.hd (findings_for "ipc-force-sweep" r) in
  Alcotest.(check string) "flagged at the helper's force" "lib/core/b.ml" f.Lint.file

(* The PR 3 bug shape, split across two functions: a helper forces the
   log, checkpoint runs the mid-checkpoint crash hook with the
   group-commit batch still pending.  The caller-side sweep fixes it —
   only the whole-repo analysis can see that pairing. *)
let test_force_sweep_checkpoint_regression () =
  let buggy =
    "let force_tail log lsn = Log_manager.force log ~upto:lsn\n\
     let take log ~on_before_master =\n\
    \  let lsn = Log_manager.append log record in\n\
    \  force_tail log lsn;\n\
    \  on_before_master ();\n\
    \  lsn\n"
  in
  let fixed =
    "let force_tail log lsn = Log_manager.force log ~upto:lsn\n\
     let take log gc ~on_before_master =\n\
    \  let lsn = Log_manager.append log record in\n\
    \  force_tail log lsn;\n\
    \  Option.iter Group_commit.on_force gc;\n\
    \  on_before_master ();\n\
    \  lsn\n"
  in
  let r = lint [ ("lib/aries/checkpoint.ml", buggy) ] in
  check_count "reintroduced checkpoint bug caught" "ipc-force-sweep" 1 r;
  let f = List.hd (findings_for "ipc-force-sweep" r) in
  Alcotest.(check int) "flagged at the force" 1 f.Lint.line;
  let r = lint [ ("lib/aries/checkpoint.ml", fixed) ] in
  check_count "caller-side sweep covers the helper" "ipc-force-sweep" 0 r

(* ---- rule 2: swallowed-control-exn ---- *)

let test_swallowed_positive () =
  let r =
    lint
      [
        ("lib/core/a.ml", "let f g x = try g x with _ -> 0\n");
        ("lib/core/b.ml", "let f g x = match g x with v -> v | exception e -> ignore e; 0\n");
      ]
  in
  check_count "catch-all try and match-exception flagged" "swallowed-control-exn" 2 r

let test_swallowed_negative () =
  let r =
    lint
      [
        ("lib/core/a.ml", "let f g x = try g x with Not_found -> 0\n");
        ("lib/core/b.ml", "let f g x = try g x with e -> cleanup (); raise e\n");
        ("lib/core/c.ml", "let f g x = try g x with e when is_benign e -> 0\n");
        ("bin/tool.ml", "let f g x = try g x with _ -> 0\n");
      ]
  in
  check_count "specific / re-raising / guarded / bin all pass" "swallowed-control-exn" 0 r

(* ---- rule 3: rng-discipline ---- *)

let test_rng_positive () =
  let r =
    lint
      [
        ("lib/sim/gen.ml", "let pick () = Random.int 10\n");
        ("lib/util/rng.ml", "let () = Random.self_init ()\n");
        ("lib/sim/clock.ml", "let now () = Unix.gettimeofday ()\nlet cpu () = Sys.time ()\n");
      ]
  in
  check_count "stray Random, self_init and wall clocks flagged" "rng-discipline" 4 r

let test_rng_negative () =
  let r =
    lint
      [
        ("lib/util/rng.ml", "let pick () = Random.int 10\n");
        ("bin/tool.ml", "let now () = Unix.gettimeofday ()\n");
      ]
  in
  check_count "designated module and bin/ pass" "rng-discipline" 0 r

(* ---- rule 4: no-poly-compare ---- *)

let test_poly_compare_positive () =
  let r =
    lint
      [
        ( "lib/buffer/pool.ml",
          "let same frame other = frame = other\nlet order victim x = compare victim x\n" );
      ]
  in
  check_count "polymorphic = and compare on state flagged" "no-poly-compare" 2 r

let test_poly_compare_negative () =
  let r =
    lint
      [
        ( "lib/buffer/pool.ml",
          "let same frame other = Frame.equal frame other\nlet eq a b = a = b\n" );
      ]
  in
  check_count "explicit equal and non-state operands pass" "no-poly-compare" 0 r

(* ---- rule 5: no-unsafe-obj ---- *)

let test_unsafe_obj () =
  let r =
    lint
      [
        ("lib/util/hack.ml", "let f x = Obj.magic x\n");
        ("bin/tool.ml", "let f x = Obj.magic x\n");
      ]
  in
  check_count "Obj in lib/ flagged, bin/ exempt" "no-unsafe-obj" 1 r

(* ---- inline suppression ---- *)

let test_inline_suppression () =
  let r =
    lint
      [
        ( "lib/core/foo.ml",
          "let commit log = (Log_manager.force log ~upto:3) [@cbl.lint.allow \"ipc-force-sweep\"]\n"
        );
      ]
  in
  check_count "attributed expression silenced" "ipc-force-sweep" 0 r;
  Alcotest.(check int) "counted as suppressed" 1 r.Lint.suppressed

let test_inline_suppression_wrong_rule () =
  (* Suppression is per rule id: naming another rule silences nothing. *)
  let r =
    lint
      [
        ( "lib/core/foo.ml",
          "let commit log = (Log_manager.force log ~upto:3) [@cbl.lint.allow \"no-unsafe-obj\"]\n"
        );
      ]
  in
  check_count "mismatched rule id does not silence" "ipc-force-sweep" 1 r

let test_floating_suppression () =
  let r =
    lint
      [
        ( "lib/core/foo.ml",
          "[@@@cbl.lint.allow \"no-unsafe-obj\"]\n\n\
           let commit log = Log_manager.force log ~upto:3\n\
           let cast x = Obj.magic x\n" );
      ]
  in
  check_count "floating attribute silences whole file" "no-unsafe-obj" 0 r;
  check_count "other rules still fire" "ipc-force-sweep" 1 r;
  Alcotest.(check int) "counted as suppressed" 1 r.Lint.suppressed

(* ---- rule 6: ipc-elr-pairing (interprocedural) ---- *)

let test_elr_pairing_positive () =
  let r =
    lint
      [
        ( "lib/core/foo.ml",
          "let early_release t txn =\n  Local_locks.release_txn_early t.locks ~txn\n" );
      ]
  in
  check_count "bare early release flagged" "ipc-elr-pairing" 1 r;
  let f = List.hd (findings_for "ipc-elr-pairing" r) in
  Alcotest.(check string) "file" "lib/core/foo.ml" f.Lint.file;
  Alcotest.(check int) "line" 2 f.Lint.line

let test_elr_pairing_negative () =
  let r =
    lint
      [
        ( "lib/core/foo.ml",
          "let early_release t txn =\n\
          \  let released = Local_locks.release_txn_early t.locks ~txn in\n\
          \  elr_record_release t ~txn released\n" );
      ]
  in
  check_count "recorded release passes" "ipc-elr-pairing" 0 r

let test_elr_pairing_callee_records () =
  (* Release in one module, dependency registration in a helper it
     calls: the pairing now only has to hold somewhere on the path. *)
  let r =
    lint
      [
        ( "lib/core/a.ml",
          "let early t txn =\n\
          \  let released = Local_locks.release_txn_early t.locks ~txn in\n\
          \  B.register t txn released\n" );
        ("lib/core/b.ml", "let register t txn released = elr_record_release t ~txn released\n");
      ]
  in
  check_count "cross-module release/record split passes" "ipc-elr-pairing" 0 r

let test_elr_pairing_impl_layer_exempt () =
  (* the lock manager implements the release; it cannot pair with the
     node-level dependency registration without a cycle *)
  let r =
    lint
      [
        ( "lib/lock/local_locks.ml",
          "let release_all t ~txn = release_txn_early t ~txn\n" );
      ]
  in
  check_count "impl layer exempt" "ipc-elr-pairing" 0 r

let test_elr_pairing_outside_lib () =
  let r = lint [ ("bin/tool.ml", "let go locks = Local_locks.release_txn_early locks ~txn:1\n") ] in
  check_count "bin/ out of scope" "ipc-elr-pairing" 0 r

(* ---- rule 7: exn-flow ---- *)

let test_exn_flow_unreachable_handler () =
  (* A raise no context up the graph can catch. *)
  let r =
    lint
      [ ("lib/core/a.ml", "let probe node =\n  Block.block (Block.Node_down { node })\n") ]
  in
  check_count "uncatchable raise flagged" "exn-flow" 1 r;
  let f = List.hd (findings_for "exn-flow" r) in
  Alcotest.(check string) "file" "lib/core/a.ml" f.Lint.file;
  Alcotest.(check int) "line" 2 f.Lint.line

let test_exn_flow_cross_file_handler () =
  (* Raise in A, handler in B: the per-file view sees neither side. *)
  let r =
    lint
      [
        ("lib/core/a.ml", "let probe node = Block.block (Block.Node_down { node })\n");
        ("lib/core/b.ml", "let run () = try A.probe 1 with Block.Would_block _ -> 0\n");
      ]
  in
  check_count "raise in A handled in B passes" "exn-flow" 0 r

let test_exn_flow_refined_label_mismatch () =
  (* The only handler on the path matches a different refinement, so
     the raise still escapes every context. *)
  let r =
    lint
      [
        ("lib/core/a.ml", "let probe dst = Block.block (Block.Net_unreachable { dst })\n");
        ( "lib/core/b.ml",
          "let run () = try A.probe 1 with Block.Would_block (Block.Node_down _) -> 0\n" );
      ]
  in
  check_count "refined label not covered flagged" "exn-flow" 1 r

let test_exn_flow_same_function_handler () =
  let r =
    lint
      [
        ( "lib/core/a.ml",
          "let probe node =\n\
          \  try Block.block (Block.Node_down { node }) with Block.Would_block _ -> 0\n" );
      ]
  in
  check_count "own handler covers" "exn-flow" 0 r

(* ---- rule 8: dead-handler ---- *)

let test_dead_handler_positive () =
  (* Nothing the guarded body reaches can raise: retry boundary that
     drifted away from the raise it used to cover. *)
  let r =
    lint [ ("lib/core/a.ml", "let f () = try 1 with Block.Would_block _ -> 0\n") ] in
  check_count "unfeedable handler flagged" "dead-handler" 1 r

let test_dead_handler_negative () =
  (* The guarded body calls (cross-module) code whose escaping raises
     match the handler. *)
  let r =
    lint
      [
        ("lib/core/a.ml", "let probe node = Block.block (Block.Node_down { node })\n");
        ("lib/core/b.ml", "let run () = try A.probe 1 with Block.Would_block _ -> 0\n");
      ]
  in
  check_count "fed handler is live" "dead-handler" 0 r

let test_dead_handler_unresolved_conservative () =
  (* A closure parameter we cannot see through: conservatively live. *)
  let r =
    lint [ ("lib/core/a.ml", "let f g = try g () with Block.Would_block _ -> 0\n") ] in
  check_count "unresolvable body stays live" "dead-handler" 0 r

(* ---- rule 9: rng-reachability ---- *)

let test_rng_reachability_positive () =
  let r = lint [ ("lib/sim/gen.ml", "let pick rng =\n  Rng.int rng 10\n") ] in
  check_count "unseeded draw flagged" "rng-reachability" 1 r;
  let f = List.hd (findings_for "rng-reachability" r) in
  Alcotest.(check string) "file" "lib/sim/gen.ml" f.Lint.file;
  Alcotest.(check int) "line" 2 f.Lint.line

let test_rng_reachability_seeded_root () =
  (* The draw sits in a helper; the root that reaches it derives the
     stream from the run's seed — cross-module, so only the graph view
     can connect them. *)
  let r =
    lint
      [
        ("lib/sim/gen.ml", "let pick rng = Rng.int rng 10\n");
        ("lib/sim/driver.ml", "let run seed =\n  let rng = Rng.create seed in\n  Gen.pick rng\n");
      ]
  in
  check_count "seeded root covers the draw" "rng-reachability" 0 r

let test_rng_reachability_impl_exempt () =
  let r = lint [ ("lib/util/rng.ml", "let int t n = Rng.next_int64 t\n") ] in
  check_count "rng module exempt" "rng-reachability" 0 r

(* ---- engine odds and ends ---- *)

let test_parse_error_is_finding () =
  let r = lint [ ("lib/core/bad.ml", "let let = in\n") ] in
  check_count "unparseable file reported, run not aborted" "parse-error" 1 r;
  Alcotest.(check bool) "run not ok" false (Lint.ok r)

let test_json_report_shape () =
  let r = lint [ ("lib/core/solo.ml", "let x = Obj.magic 1\n") ] in
  let json = Lint.result_to_json ~rules:Rules.all r in
  let member name = Json.member name json in
  Alcotest.(check (option string))
    "tool" (Some "cbl-lint")
    (Option.bind (member "tool") Json.to_string_opt);
  Alcotest.(check (option int))
    "files_scanned" (Some 1)
    (Option.bind (member "files_scanned") Json.to_int_opt);
  (match member "rules" with
  | Some (Json.List rules) -> Alcotest.(check int) "nine rules" 9 (List.length rules)
  | _ -> Alcotest.fail "rules member missing");
  (match member "rule_seconds" with
  | Some (Json.Obj timings) ->
    Alcotest.(check int) "one timing per rule" 9 (List.length timings);
    Alcotest.(check (list string))
      "timings in registry order"
      (List.map (fun rule -> rule.Lint.id) Rules.all)
      (List.map fst timings)
  | _ -> Alcotest.fail "rule_seconds member missing");
  match member "findings" with
  | Some (Json.List (Json.Obj fields :: _)) ->
    Alcotest.(check (option string))
      "finding rule" (Some "no-unsafe-obj")
      (Option.bind (List.assoc_opt "rule" fields) Json.to_string_opt)
  | _ -> Alcotest.fail "findings member missing"

(* ---- analysis phases directly: the fixpoint ---- *)

module Summary = Repro_lint.Summary
module Callgraph = Repro_lint.Callgraph
module Propagate = Repro_lint.Propagate

(* A deliberately knotty little repo: cross-module calls, a call cycle
   no root enters (pseudo-root path), real violations of all three
   pairing families, and a cross-file handler. *)
let order_fixture =
  [
    ( "lib/core/a.ml",
      "let rec ping x = B.pong (x - 1)\n\
       let commit log gc =\n\
      \  Log_manager.force log ~upto:3;\n\
      \  B.sweep gc\n\
       let entry log gc = commit log gc; C.run (Rng.create 7)\n" );
    ( "lib/core/b.ml",
      "let pong x = A.ping x\n\
       let sweep gc = Group_commit.on_force gc\n\
       let lone t = Local_locks.release_txn_early t ~txn:1\n\
       let probe node = Block.block (Block.Node_down { node })\n" );
    ( "lib/core/c.ml",
      "let draw rng = Rng.int rng 10\n\
       let run rng = try B.probe 1 with Block.Would_block _ -> draw rng\n\
       let stray rng = Rng.float rng\n" );
  ]

let analysis_cfg =
  {
    Propagate.force_impl = [];
    elr_impl = [];
    rng_impl = [];
    raise_impl = [];
    checked = (fun rel -> String.length rel >= 4 && String.sub rel 0 4 = "lib/");
  }

let order_graph =
  lazy
    (let root = fresh_root () in
     List.iter (write_file root) order_fixture;
     let _, sources, _ = Lint.parse_tree ~root ~paths:[ "lib" ] in
     Callgraph.build (Summary.of_sources sources))

(* Everything the rules read off a [Propagate.t], as comparable data. *)
let projection t =
  let cov (c : Propagate.cov_site) =
    Printf.sprintf "%s:%d:%d %s %s" c.Propagate.c_file c.Propagate.c_loc.Summary.line
      c.Propagate.c_loc.Summary.col c.Propagate.c_fn c.Propagate.c_what
  in
  let rs (r : Propagate.raise_site) =
    Printf.sprintf "%s:%d:%d %s %s" r.Propagate.r_file r.Propagate.r_loc.Summary.line
      r.Propagate.r_loc.Summary.col r.Propagate.r_fn
      (Summary.label_name r.Propagate.r_label)
  in
  ( List.sort compare (List.map cov (Propagate.violations_force t)),
    List.sort compare (List.map cov (Propagate.violations_elr t)),
    List.sort compare (List.map cov (Propagate.violations_rng t)),
    List.sort compare (List.map rs (Propagate.unhandled_raises t)),
    Array.to_list t.Propagate.may_sweep,
    Array.to_list t.Propagate.may_elr_record,
    Array.to_list t.Propagate.may_seed,
    List.sort compare t.Propagate.roots )

let test_order_fixture_findings () =
  (* Sanity-check the fixture actually exercises every family before
     the property asserts order-independence over it. *)
  let t = Propagate.run analysis_cfg (Lazy.force order_graph) in
  let f, e, g, u, _, _, _, _ = projection t in
  Alcotest.(check int) "no force violation (paired cross-module)" 0 (List.length f);
  Alcotest.(check int) "one bare release" 1 (List.length e);
  Alcotest.(check int) "one unseeded draw (stray)" 1 (List.length g);
  Alcotest.(check int) "raise handled cross-file" 0 (List.length u)

(* The fixpoint is a join over monotone transfer functions, so the
   sweep order must not matter.  Permute it and compare everything. *)
let prop_fixpoint_order_independent =
  QCheck.Test.make ~count:50 ~name:"propagate: fixpoint independent of sweep order"
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let g = Lazy.force order_graph in
      let n = Array.length g.Callgraph.nodes in
      (* xorshift-driven Fisher-Yates: deterministic per qcheck seed *)
      let s = ref seed in
      let next bound =
        s := !s lxor (!s lsl 13);
        s := !s lxor (!s lsr 7);
        s := !s lxor (!s lsl 17);
        abs !s mod bound
      in
      let perm = Array.init n (fun i -> i) in
      for i = n - 1 downto 1 do
        let j = next (i + 1) in
        let tmp = perm.(i) in
        perm.(i) <- perm.(j);
        perm.(j) <- tmp
      done;
      projection (Propagate.run ~order:perm analysis_cfg g)
      = projection (Propagate.run analysis_cfg g))

let test_rule_registry () =
  List.iter
    (fun rule ->
      match Rules.find rule.Lint.id with
      | Some found -> Alcotest.(check string) "find resolves id" rule.Lint.id found.Lint.id
      | None -> Alcotest.fail ("rule not findable: " ^ rule.Lint.id))
    Rules.all;
  Alcotest.(check bool) "unknown id rejected" true (Rules.find "no-such-rule" = None)

let test_clean_tree_ok () =
  let r =
    lint
      [
        ("lib/core/pair.ml", "let x = 1\n");
        ("lib/core/pair.mli", "val x : int\n");
      ]
  in
  Alcotest.(check bool) "ok" true (Lint.ok r);
  Alcotest.(check int) "no findings" 0 (List.length r.Lint.findings);
  Alcotest.(check int) "both files scanned" 2 r.Lint.files_scanned

let suite =
  [
    Alcotest.test_case "ipc-force-sweep: unswept force flagged" `Quick test_force_sweep_positive;
    Alcotest.test_case "ipc-force-sweep: paired force passes" `Quick test_force_sweep_negative;
    Alcotest.test_case "ipc-force-sweep: charge variant" `Quick test_force_sweep_charge_variant;
    Alcotest.test_case "ipc-force-sweep: impl layer exempt" `Quick
      test_force_sweep_impl_layer_exempt;
    Alcotest.test_case "ipc-force-sweep: bin/ out of scope" `Quick test_force_sweep_outside_lib;
    Alcotest.test_case "ipc-force-sweep: cross-module pairing passes" `Quick
      test_force_sweep_callee_covers;
    Alcotest.test_case "ipc-force-sweep: split helper still caught" `Quick
      test_force_sweep_split_still_caught;
    Alcotest.test_case "ipc-force-sweep: PR3 bug shape across two functions" `Quick
      test_force_sweep_checkpoint_regression;
    Alcotest.test_case "swallowed-control-exn: catch-alls flagged" `Quick test_swallowed_positive;
    Alcotest.test_case "swallowed-control-exn: clean idioms pass" `Quick test_swallowed_negative;
    Alcotest.test_case "rng-discipline: violations flagged" `Quick test_rng_positive;
    Alcotest.test_case "rng-discipline: clean idioms pass" `Quick test_rng_negative;
    Alcotest.test_case "no-poly-compare: state operands flagged" `Quick test_poly_compare_positive;
    Alcotest.test_case "no-poly-compare: clean idioms pass" `Quick test_poly_compare_negative;
    Alcotest.test_case "no-unsafe-obj: Obj in lib/ flagged" `Quick test_unsafe_obj;
    Alcotest.test_case "ipc-elr-pairing: bare release flagged" `Quick test_elr_pairing_positive;
    Alcotest.test_case "ipc-elr-pairing: recorded release passes" `Quick
      test_elr_pairing_negative;
    Alcotest.test_case "ipc-elr-pairing: cross-module pairing passes" `Quick
      test_elr_pairing_callee_records;
    Alcotest.test_case "ipc-elr-pairing: impl layer exempt" `Quick
      test_elr_pairing_impl_layer_exempt;
    Alcotest.test_case "ipc-elr-pairing: bin/ out of scope" `Quick test_elr_pairing_outside_lib;
    Alcotest.test_case "exn-flow: uncatchable raise flagged" `Quick
      test_exn_flow_unreachable_handler;
    Alcotest.test_case "exn-flow: raise in A handled in B" `Quick test_exn_flow_cross_file_handler;
    Alcotest.test_case "exn-flow: refined label mismatch flagged" `Quick
      test_exn_flow_refined_label_mismatch;
    Alcotest.test_case "exn-flow: own handler covers" `Quick test_exn_flow_same_function_handler;
    Alcotest.test_case "dead-handler: unfeedable handler flagged" `Quick test_dead_handler_positive;
    Alcotest.test_case "dead-handler: cross-module feed is live" `Quick test_dead_handler_negative;
    Alcotest.test_case "dead-handler: unresolved body conservative" `Quick
      test_dead_handler_unresolved_conservative;
    Alcotest.test_case "rng-reachability: unseeded draw flagged" `Quick
      test_rng_reachability_positive;
    Alcotest.test_case "rng-reachability: seeded root covers" `Quick
      test_rng_reachability_seeded_root;
    Alcotest.test_case "rng-reachability: rng module exempt" `Quick
      test_rng_reachability_impl_exempt;
    Alcotest.test_case "suppression: inline attribute" `Quick test_inline_suppression;
    Alcotest.test_case "suppression: wrong rule id inert" `Quick test_inline_suppression_wrong_rule;
    Alcotest.test_case "suppression: floating attribute" `Quick test_floating_suppression;
    Alcotest.test_case "engine: parse error is a finding" `Quick test_parse_error_is_finding;
    Alcotest.test_case "engine: JSON report shape" `Quick test_json_report_shape;
    Alcotest.test_case "engine: clean tree is ok" `Quick test_clean_tree_ok;
    Alcotest.test_case "engine: rule registry lookup" `Quick test_rule_registry;
    Alcotest.test_case "propagate: order fixture findings" `Quick test_order_fixture_findings;
    QCheck_alcotest.to_alcotest prop_fixpoint_order_independent;
  ]
