(* cbl-lint: enforce the repo's WAL/fault/determinism protocol rules.

   Usage:  dune exec bin/cbl_lint.exe -- [options] [paths...]

   Paths default to lib bin bench test.  Exit status is non-zero on any
   finding not suppressed inline with [@cbl.lint.allow "rule-id"], so
   ci.sh and the workflow gate on it.

     --json            print the JSON report to stdout instead of the
                       human file:line:col lines (includes per-rule
                       timing)
     --out FILE        additionally write the JSON report to FILE
                       (CI uses --out LINT_REPORT.json)
     --root DIR        repo root the paths are relative to (default .)
     --rules IDS       run only the comma-separated rule ids; unknown
                       ids are an error (exit 2).  "--rules list"
                       prints the registry and exits *)

module Lint = Repro_lint.Lint
module Rules = Repro_lint.Rules
module Json = Repro_obs.Json

let usage () =
  prerr_endline
    "usage: cbl_lint [--json] [--out FILE] [--root DIR] [--rules IDS] [paths...]";
  exit 2

let () =
  let json = ref false and out = ref None in
  let root = ref "." and paths = ref [] and rule_ids = ref None in
  let rec parse = function
    | [] -> ()
    | "--json" :: rest ->
      json := true;
      parse rest
    | "--out" :: file :: rest ->
      out := Some file;
      parse rest
    | "--root" :: dir :: rest ->
      root := dir;
      parse rest
    | "--rules" :: ids :: rest ->
      rule_ids := Some ids;
      parse rest
    | ("--out" | "--root" | "--rules") :: [] -> usage ()
    | arg :: _ when String.length arg > 2 && String.sub arg 0 2 = "--" -> usage ()
    | path :: rest ->
      paths := path :: !paths;
      parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let rules =
    match !rule_ids with
    | None -> Rules.all
    | Some "list" ->
      List.iter (fun r -> Printf.printf "%-24s %s\n" r.Lint.id r.Lint.doc) Rules.all;
      exit 0
    | Some ids ->
      let ids = String.split_on_char ',' ids |> List.map String.trim in
      let unknown = List.filter (fun id -> Rules.find id = None) ids in
      if unknown <> [] then begin
        Printf.eprintf "cbl_lint: unknown rule id%s: %s\nknown rules: %s\n"
          (if List.length unknown > 1 then "s" else "")
          (String.concat ", " unknown)
          (String.concat ", " (List.map (fun r -> r.Lint.id) Rules.all));
        exit 2
      end;
      List.filter_map Rules.find ids
  in
  let paths =
    match List.rev !paths with [] -> [ "lib"; "bin"; "bench"; "test" ] | ps -> ps
  in
  let result = Lint.run ~clock:Unix.gettimeofday ~root:!root ~paths ~rules () in
  let report = Json.to_string_pretty (Lint.result_to_json ~rules result) in
  (match !out with
  | Some file ->
    let oc = open_out file in
    output_string oc report;
    output_char oc '\n';
    close_out oc
  | None -> ());
  if !json then print_endline report
  else begin
    List.iter (fun f -> print_endline (Lint.render_finding f)) result.Lint.findings;
    Printf.printf "cbl-lint: %d files, %d findings (%d suppressed)\n" result.Lint.files_scanned
      (List.length result.Lint.findings)
      result.Lint.suppressed
  end;
  exit (if Lint.ok result then 0 else 1)
