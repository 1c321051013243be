(* The experiment suite doubles as an integration test: each experiment
   verifies its own durability oracle, and its spec judges the headline
   shapes the paper claims.  Every quick run's judged claims must hold,
   and each named test pins the claims its experiment must carry. *)

module E = Repro_experiments.Experiments
module Spec = Repro_experiments.Spec

let expect id claims () =
  let _, verdicts = Spec.run ~quick:true (Option.get (E.by_id id)) in
  List.iter
    (fun claim ->
      match List.find_opt (fun (v : Spec.verdict) -> v.claim = claim) verdicts with
      | Some v -> Alcotest.(check (pair bool bool)) claim (true, true) (v.judged, v.pass)
      | None -> Alcotest.failf "%s has no claim %S" id claim)
    claims

let test_all_quick_claims_hold () =
  List.iter
    (fun spec ->
      List.iter
        (fun (v : Spec.verdict) ->
          if v.judged then Alcotest.(check bool) (v.experiment ^ ": " ^ v.claim) true v.pass)
        (snd (Spec.run ~quick:true spec)))
    E.all

(* No real experiment fails a claim, so the failure path runs on a
   synthetic spec: a false judged claim prints FAIL and is reported as
   failed; a false full-sweep target in a quick run prints its smoke
   text and is not judged. *)
let test_false_claim_fails () =
  let spec =
    Spec.make ~id:"X1" ~title:"synthetic" ~claim:"rows are zero" ~quick:[ 1 ] ~full:[ 1 ]
      ~run:(fun ~quick:_ n -> [ n; n ])
      ~columns:[ ("n", string_of_int) ]
      ~claims:
        [
          Spec.shown "every row is zero" (List.for_all (( = ) 0));
          Spec.shown "rows sum to zero" (fun rows -> List.fold_left ( + ) 0 rows = 0)
            ~smoke:(fun _ -> "sum smoke");
        ]
      ()
  in
  let report, verdicts = Spec.run ~quick:true spec in
  Alcotest.(check (list string)) "notes" [ "FAIL: every row is zero"; "sum smoke" ] report.notes;
  Alcotest.(check (list (list string))) "rows" [ [ "1" ]; [ "1" ] ] report.rows;
  Alcotest.(check (list string))
    "failed" [ "every row is zero" ]
    (List.map (fun (v : Spec.verdict) -> v.claim) (Spec.failed verdicts))

let suite =
  List.map
    (fun (name, id, claims) -> (name, `Slow, expect id claims))
    [
      ("F1: zero commit messages", "F1", [ "zero commit-path messages at every node" ]);
      ("E1: cbl commit path is free", "E1", [ "cbl sends no commit messages and ships no records" ]);
      ( "E4: no log merging",
        "E4",
        [ "the paper's protocol ships no records"; "the merge baseline ships records" ] );
      ("E5: rounds grow with involvement", "E5", [ "page transfers rise with involved nodes" ]);
      ("E6: log pressure loses nothing", "E6", [ "every log capacity commits the same count" ]);
      ("E7: checkpoints are message-free", "E7", [ "checkpoints add no messages" ]);
      ("E8: multi-crash oracle", "E8", [ "the oracle holds after every crash set" ]);
      ( "E10: transfers without forces",
        "E10",
        [ "cbl writes no page at hand-over"; "the global log writes pages at hand-over" ] );
      ( "E11: group commit raises throughput",
        "E11",
        [
          "batching loses no commits";
          "batches form at the largest cap";
          "batching cuts forces/txn";
          "batching raises txn/s";
        ] );
    ]
  @ [
      ("all: every judged quick claim holds", `Slow, test_all_quick_claims_hold);
      ("runner: a false claim fails", `Quick, test_false_claim_fails);
    ]
