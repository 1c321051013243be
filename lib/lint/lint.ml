type severity = Error | Warning

type finding = {
  rule : string;
  severity : severity;
  file : string;
  line : int;
  col : int;
  msg : string;
}

type ast = Impl of Parsetree.structure | Intf of Parsetree.signature

type source = { rel : string; ast : ast }

type ctx = {
  root : string;
  sources : source list;
  report :
    ?severity:severity -> rule:string -> file:string -> line:int -> col:int -> string -> unit;
}

let report_loc ctx ?severity ~rule (loc : Location.t) msg =
  let p = loc.Location.loc_start in
  ctx.report ?severity ~rule ~file:p.Lexing.pos_fname ~line:p.Lexing.pos_lnum
    ~col:(p.Lexing.pos_cnum - p.Lexing.pos_bol)
    msg

type rule = { id : string; doc : string; check : ctx -> unit }

type result = {
  findings : finding list;
  files_scanned : int;
  suppressed : int;
  rule_seconds : (string * float) list;
}

(* ------------------------------------------------------------------ *)
(* File discovery                                                      *)
(* ------------------------------------------------------------------ *)

let is_source_file name =
  Filename.check_suffix name ".ml" || Filename.check_suffix name ".mli"

let skip_dir name = name = "_build" || (String.length name > 0 && name.[0] = '.')

(* Root-relative paths of every .ml/.mli under [paths], sorted for a
   deterministic report order. *)
let discover ~root paths =
  let acc = ref [] in
  let rec walk rel =
    let full = Filename.concat root rel in
    if Sys.is_directory full then
      Array.iter
        (fun name ->
          if not (skip_dir name) then
            let child = Filename.concat rel name in
            let child_full = Filename.concat root child in
            if Sys.is_directory child_full then walk child
            else if is_source_file name then acc := child :: !acc)
        (Sys.readdir full)
    else if is_source_file rel then acc := rel :: !acc
  in
  List.iter (fun p -> if Sys.file_exists (Filename.concat root p) then walk p) paths;
  List.sort_uniq compare !acc

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* [None] with a finding on syntax errors: a file the compiler cannot
   parse should fail the lint gate loudly, not vanish from coverage. *)
let parse_source ~root rel =
  let text = read_file (Filename.concat root rel) in
  let lexbuf = Lexing.from_string text in
  Lexing.set_filename lexbuf rel;
  Location.input_name := rel;
  match
    if Filename.check_suffix rel ".mli" then Intf (Parse.interface lexbuf)
    else Impl (Parse.implementation lexbuf)
  with
  | ast -> Ok { rel; ast }
  | exception Syntaxerr.Error _ ->
    let p = lexbuf.Lexing.lex_curr_p in
    Error
      {
        rule = "parse-error";
        severity = Error;
        file = rel;
        line = p.Lexing.pos_lnum;
        col = p.Lexing.pos_cnum - p.Lexing.pos_bol;
        msg = "syntax error";
      }
  | exception Lexer.Error (_, loc) ->
    let p = loc.Location.loc_start in
    Error
      {
        rule = "parse-error";
        severity = Error;
        file = rel;
        line = p.Lexing.pos_lnum;
        col = p.Lexing.pos_cnum - p.Lexing.pos_bol;
        msg = "lexer error";
      }

(* ------------------------------------------------------------------ *)
(* Inline suppression: [@cbl.lint.allow "rule-id"]                     *)
(* ------------------------------------------------------------------ *)

let attr_name = "cbl.lint.allow"

(* The ids named by any [@cbl.lint.allow "..."] among [attrs]. *)
let allow_ids attrs =
  List.concat_map
    (fun (a : Parsetree.attribute) ->
      if a.attr_name.txt <> attr_name then []
      else
        match a.attr_payload with
        | Parsetree.PStr
            [
              {
                pstr_desc =
                  Pstr_eval ({ pexp_desc = Pexp_constant (Pconst_string (id, _, _)); _ }, _);
                _;
              };
            ] ->
          [ id ]
        | _ -> [])
    attrs

(* A suppression covers rule [id] in [file] between [first] and [last]
   lines inclusive (whole-file suppressions use [max_int]). *)
type suppression = { s_rule : string; s_file : string; first : int; last : int }

let span_of (loc : Location.t) =
  (loc.Location.loc_start.Lexing.pos_lnum, loc.Location.loc_end.Lexing.pos_lnum)

let collect_suppressions sources =
  let acc = ref [] in
  let add rel ids (first, last) =
    List.iter (fun id -> acc := { s_rule = id; s_file = rel; first; last } :: !acc) ids
  in
  let collect rel =
    let on_attrs attrs loc = add rel (allow_ids attrs) (span_of loc) in
    let open Ast_iterator in
    {
      default_iterator with
      expr =
        (fun self e ->
          on_attrs e.Parsetree.pexp_attributes e.Parsetree.pexp_loc;
          default_iterator.expr self e);
      value_binding =
        (fun self vb ->
          on_attrs vb.Parsetree.pvb_attributes vb.Parsetree.pvb_loc;
          default_iterator.value_binding self vb);
      module_binding =
        (fun self mb ->
          on_attrs mb.Parsetree.pmb_attributes mb.Parsetree.pmb_loc;
          default_iterator.module_binding self mb);
      type_declaration =
        (fun self td ->
          on_attrs td.Parsetree.ptype_attributes td.Parsetree.ptype_loc;
          default_iterator.type_declaration self td);
      structure_item =
        (fun self item ->
          (match item.Parsetree.pstr_desc with
          | Pstr_attribute a -> add rel (allow_ids [ a ]) (1, max_int)
          | Pstr_eval (_, attrs) -> on_attrs attrs item.Parsetree.pstr_loc
          | _ -> ());
          default_iterator.structure_item self item);
      signature_item =
        (fun self item ->
          (match item.Parsetree.psig_desc with
          | Psig_attribute a -> add rel (allow_ids [ a ]) (1, max_int)
          | _ -> ());
          default_iterator.signature_item self item);
    }
  in
  List.iter
    (fun { rel; ast; _ } ->
      let it = collect rel in
      match ast with
      | Impl s -> it.Ast_iterator.structure it s
      | Intf s -> it.Ast_iterator.signature it s)
    sources;
  !acc

let is_suppressed suppressions ~rule ~file ~line =
  List.exists
    (fun s -> s.s_rule = rule && s.s_file = file && line >= s.first && line <= s.last)
    suppressions

(* ------------------------------------------------------------------ *)
(* Driving                                                             *)
(* ------------------------------------------------------------------ *)

let compare_finding a b =
  let c = compare a.file b.file in
  if c <> 0 then c
  else
    let c = compare a.line b.line in
    if c <> 0 then c
    else
      let c = compare a.col b.col in
      if c <> 0 then c else compare a.rule b.rule

(* Phase 1 in isolation: discovery + parsing, no rules.  Exposed so the
   bench can time the parse and summary phases separately. *)
let parse_tree ~root ~paths =
  let files = discover ~root paths in
  let sources = ref [] and parse_findings = ref [] in
  List.iter
    (fun rel ->
      match parse_source ~root rel with
      | Ok src -> sources := src :: !sources
      | Error f -> parse_findings := f :: !parse_findings)
    files;
  (files, List.rev !sources, List.rev !parse_findings)

let run ?(clock = fun () -> 0.) ~root ~paths ~rules () =
  let files, sources, parse_findings = parse_tree ~root ~paths in
  let suppressions = collect_suppressions sources in
  let findings = ref [] and suppressed = ref 0 in
  let report ?(severity = Error) ~rule ~file ~line ~col msg =
    if is_suppressed suppressions ~rule ~file ~line then incr suppressed
    else findings := { rule; severity; file; line; col; msg } :: !findings
  in
  let ctx = { root; sources; report } in
  let rule_seconds =
    List.map
      (fun r ->
        let t0 = clock () in
        r.check ctx;
        (r.id, clock () -. t0))
      rules
  in
  {
    findings = List.sort compare_finding (parse_findings @ !findings);
    files_scanned = List.length files;
    suppressed = !suppressed;
    rule_seconds;
  }

let ok r = r.findings = []

let severity_name = function Error -> "error" | Warning -> "warning"

let render_finding f =
  Printf.sprintf "%s:%d:%d: %s [%s] %s" f.file f.line f.col (severity_name f.severity) f.rule
    f.msg

let result_to_json ~rules r =
  let module J = Repro_obs.Json in
  J.Obj
    [
      ("tool", J.Str "cbl-lint");
      ("rules", J.List (List.map (fun rule -> J.Str rule.id) rules));
      ("files_scanned", J.Int r.files_scanned);
      ("suppressed", J.Int r.suppressed);
      ("ok", J.Bool (ok r));
      ( "rule_seconds",
        J.Obj (List.map (fun (id, s) -> (id, J.Float s)) r.rule_seconds) );
      ( "findings",
        J.List
          (List.map
             (fun f ->
               J.Obj
                 [
                   ("rule", J.Str f.rule);
                   ("severity", J.Str (severity_name f.severity));
                   ("file", J.Str f.file);
                   ("line", J.Int f.line);
                   ("col", J.Int f.col);
                   ("msg", J.Str f.msg);
                 ])
             r.findings) );
    ]
