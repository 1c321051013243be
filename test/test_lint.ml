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

(* ---- rule 1: swallowed-control-exn ---- *)

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

(* ---- rule 2: rng-discipline ---- *)

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

(* ---- rule 3: no-poly-compare ---- *)

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

(* ---- rule 4: no-unsafe-obj ---- *)

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
      [ ("lib/core/foo.ml", "let cast x = (Obj.magic x) [@cbl.lint.allow \"no-unsafe-obj\"]\n") ]
  in
  check_count "attributed expression silenced" "no-unsafe-obj" 0 r;
  Alcotest.(check int) "counted as suppressed" 1 r.Lint.suppressed

let test_inline_suppression_wrong_rule () =
  (* Suppression is per rule id: naming another rule silences nothing. *)
  let r =
    lint
      [ ("lib/core/foo.ml", "let cast x = (Obj.magic x) [@cbl.lint.allow \"rng-discipline\"]\n") ]
  in
  check_count "mismatched rule id does not silence" "no-unsafe-obj" 1 r

let test_floating_suppression () =
  let r =
    lint
      [
        ( "lib/core/foo.ml",
          "[@@@cbl.lint.allow \"no-unsafe-obj\"]\n\n\
           let pick () = Random.int 10\n\
           let cast x = Obj.magic x\n" );
      ]
  in
  check_count "floating attribute silences whole file" "no-unsafe-obj" 0 r;
  check_count "other rules still fire" "rng-discipline" 1 r;
  Alcotest.(check int) "counted as suppressed" 1 r.Lint.suppressed

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
  | Some (Json.List rules) -> Alcotest.(check int) "four rules" 4 (List.length rules)
  | _ -> Alcotest.fail "rules member missing");
  (match member "rule_seconds" with
  | Some (Json.Obj timings) ->
    Alcotest.(check int) "one timing per rule" 4 (List.length timings);
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
    Alcotest.test_case "swallowed-control-exn: catch-alls flagged" `Quick test_swallowed_positive;
    Alcotest.test_case "swallowed-control-exn: clean idioms pass" `Quick test_swallowed_negative;
    Alcotest.test_case "rng-discipline: violations flagged" `Quick test_rng_positive;
    Alcotest.test_case "rng-discipline: clean idioms pass" `Quick test_rng_negative;
    Alcotest.test_case "no-poly-compare: state operands flagged" `Quick test_poly_compare_positive;
    Alcotest.test_case "no-poly-compare: clean idioms pass" `Quick test_poly_compare_negative;
    Alcotest.test_case "no-unsafe-obj: Obj in lib/ flagged" `Quick test_unsafe_obj;
    Alcotest.test_case "suppression: inline attribute" `Quick test_inline_suppression;
    Alcotest.test_case "suppression: wrong rule id inert" `Quick test_inline_suppression_wrong_rule;
    Alcotest.test_case "suppression: floating attribute" `Quick test_floating_suppression;
    Alcotest.test_case "engine: parse error is a finding" `Quick test_parse_error_is_finding;
    Alcotest.test_case "engine: JSON report shape" `Quick test_json_report_shape;
    Alcotest.test_case "engine: clean tree is ok" `Quick test_clean_tree_ok;
    Alcotest.test_case "engine: rule registry lookup" `Quick test_rule_registry;
  ]
