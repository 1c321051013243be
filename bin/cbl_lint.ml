(* cbl-lint: enforce the repo's WAL/fault/determinism protocol rules.

   Usage:  dune exec bin/cbl_lint.exe -- [options] [paths...]

   Paths default to lib bin bench test.  Exit status is non-zero on any
   unsuppressed finding, so ci.sh and the workflow gate on it.

     --json            print the JSON report to stdout instead of the
                       human file:line:col lines (includes per-rule
                       timing)
     --out FILE        additionally write the JSON report to FILE
                       (CI uses --out LINT_REPORT.json)
     --allowlist FILE  grandfathered-violation list
                       (default: lint_allowlist.txt under --root)
     --root DIR        repo root the paths are relative to (default .)
     --rules IDS       run only the comma-separated rule ids; unknown
                       ids are an error (exit 2).  "--rules list"
                       prints the registry and exits
     --dump-summaries  print the phase-1 effect summaries as JSON and
                       exit 0 (debug surface)
     --dump-callgraph  print the resolved call graph as JSON and exit 0
                       (CI uploads this as an artifact) *)

module Lint = Repro_lint.Lint
module Rules = Repro_lint.Rules
module Summary = Repro_lint.Summary
module Callgraph = Repro_lint.Callgraph
module Json = Repro_obs.Json

let usage () =
  prerr_endline
    "usage: cbl_lint [--json] [--out FILE] [--allowlist FILE] [--root DIR] [--rules IDS] \
     [--dump-summaries] [--dump-callgraph] [paths...]";
  exit 2

let () =
  let json = ref false and out = ref None and allowlist = ref None in
  let root = ref "." and paths = ref [] and rule_ids = ref None in
  let dump_summaries = ref false and dump_callgraph = ref false in
  let rec parse = function
    | [] -> ()
    | "--json" :: rest ->
      json := true;
      parse rest
    | "--out" :: file :: rest ->
      out := Some file;
      parse rest
    | "--allowlist" :: file :: rest ->
      allowlist := Some file;
      parse rest
    | "--root" :: dir :: rest ->
      root := dir;
      parse rest
    | "--rules" :: ids :: rest ->
      rule_ids := Some ids;
      parse rest
    | "--dump-summaries" :: rest ->
      dump_summaries := true;
      parse rest
    | "--dump-callgraph" :: rest ->
      dump_callgraph := true;
      parse rest
    | ("--out" | "--allowlist" | "--root" | "--rules") :: [] -> usage ()
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
  if !dump_summaries || !dump_callgraph then begin
    let _, sources, _ = Lint.parse_tree ~root:!root ~paths in
    let files = Summary.of_sources sources in
    if !dump_summaries then print_endline (Json.to_string_pretty (Summary.to_json files));
    if !dump_callgraph then
      print_endline (Json.to_string_pretty (Callgraph.to_json (Callgraph.build files)));
    exit 0
  end;
  let allowlist_file =
    match !allowlist with
    | Some f -> Some f
    | None ->
      let default = Filename.concat !root "lint_allowlist.txt" in
      if Sys.file_exists default then Some default else None
  in
  let result =
    Lint.run ?allowlist_file ~clock:Unix.gettimeofday ~root:!root ~paths ~rules ()
  in
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
    Printf.printf "cbl-lint: %d files, %d findings (%d suppressed, %d allowlisted)\n"
      result.Lint.files_scanned
      (List.length result.Lint.findings)
      result.Lint.suppressed result.Lint.allowlisted
  end;
  exit (if Lint.ok result then 0 else 1)
