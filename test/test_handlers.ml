(* swallowed-control-exn: no exception handler under lib/ may catch
   every exception.  Blocking, crashes and full logs travel as
   exceptions (Block.Would_block, Log_full, Redo_gap), and a catch-all
   would also absorb the Failure or Invalid_argument of a broken
   invariant; the eviction chain once swallowed a crash this way.  The
   stress and audit sweeps cannot see such a handler: on a correct tree
   nothing else ever reaches it.  So this test parses lib/ and fails on
   any handler whose pattern matches every exception, unless its guard
   tests the exception it binds.  A handler that re-raises on some
   path still swallows on the others, so re-raising does not exempt
   one: cleanup-and-re-raise is Fun.protect's job. *)

open Parsetree

(* [Some bound] when [p] matches every exception; [bound] is the
   variable it binds, if any. *)
let rec catch_all p =
  match p.ppat_desc with
  | Ppat_any -> Some None
  | Ppat_var v -> Some (Some v.Asttypes.txt)
  | Ppat_alias (inner, v) -> Option.map (fun _ -> Some v.Asttypes.txt) (catch_all inner)
  | Ppat_or (a, b) -> ( match catch_all a with Some _ as r -> r | None -> catch_all b)
  | Ppat_constraint (inner, _) -> catch_all inner
  | _ -> None

let iterator ~expr =
  {
    Ast_iterator.default_iterator with
    expr =
      (fun self e ->
        expr e;
        Ast_iterator.default_iterator.expr self e);
  }

(* Does [guard] read the variable [name]? *)
let tests name guard =
  let found = ref false in
  let it =
    iterator ~expr:(fun e ->
        match e.pexp_desc with
        | Pexp_ident { txt = Longident.Lident v; _ } when String.equal v name -> found := true
        | _ -> ())
  in
  it.expr it guard;
  !found

(* The catch-all handlers of one implementation, as "file:line". *)
let swallowing ~file source =
  let lexbuf = Lexing.from_string source in
  Location.init lexbuf file;
  let found = ref [] in
  let case ~in_try c =
    let handler =
      match c.pc_lhs.ppat_desc with
      | Ppat_exception inner -> Some inner
      | _ -> if in_try then Some c.pc_lhs else None
    in
    match (Option.bind handler catch_all, c.pc_guard) with
    | Some (Some v), Some guard when tests v guard -> ()
    | Some _, _ ->
      let pos = c.pc_lhs.ppat_loc.Location.loc_start in
      found := Printf.sprintf "%s:%d" file pos.Lexing.pos_lnum :: !found
    | None, _ -> ()
  in
  let it =
    iterator ~expr:(fun e ->
        match e.pexp_desc with
        | Pexp_try (_, cases) -> List.iter (case ~in_try:true) cases
        | Pexp_match (_, cases) -> List.iter (case ~in_try:false) cases
        | _ -> ())
  in
  it.structure it (Parse.implementation lexbuf);
  List.rev !found

(* lib/'s sources, copied next to this executable's build directory *)
let lib_sources () =
  let lib = Filename.concat (Filename.dirname Sys.executable_name) "../lib" in
  Sys.readdir lib |> Array.to_list |> List.sort String.compare
  |> List.concat_map (fun dir ->
         let dir = Filename.concat lib dir in
         if Sys.is_directory dir then
           Sys.readdir dir |> Array.to_list |> List.sort String.compare
           |> List.filter (fun f -> Filename.check_suffix f ".ml")
           |> List.map (Filename.concat dir)
         else [])

let check msg expected src =
  Alcotest.(check int) msg expected (List.length (swallowing ~file:"fixture.ml" src))

let test_catch_alls_flagged () =
  check "try ... with _" 1 "let f g x = try g x with _ -> 0";
  check "match ... | exception e" 1 "let f g x = match g x with v -> v | exception e -> ignore e; 0";
  check "re-raised on one path" 1 "let f g x = try g x with e -> if down () then raise e; 0";
  check "guard ignores the exception" 1 "let f g x = try g x with _ when ready () -> 0"

let test_clean_idioms () =
  check "specific exception" 0 "let f g x = try g x with Not_found -> 0";
  check "guard tests the exception" 0 "let f g x = try g x with e when is_benign e -> 0";
  check "non-exception match" 0 "let f x = match x with Some v -> v | _ -> 0"

let test_no_catch_all () =
  let sources = lib_sources () in
  Alcotest.(check bool) "lib/ sources found" true (List.length sources > 50);
  Alcotest.(check (list string))
    "catch-all handlers in lib/" []
    (List.concat_map (fun path -> swallowing ~file:path (In_channel.with_open_bin path In_channel.input_all)) sources)

let suite =
  [
    Alcotest.test_case "swallowed-control-exn: catch-alls flagged" `Quick test_catch_alls_flagged;
    Alcotest.test_case "swallowed-control-exn: clean idioms pass" `Quick test_clean_idioms;
    Alcotest.test_case "swallowed-control-exn: no catch-all in lib/" `Quick test_no_catch_all;
  ]
