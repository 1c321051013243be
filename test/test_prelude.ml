(* Build tests for lib/prelude: every library under lib/ opens
   Repro_prelude with the flags in lib/prelude/flags.sexp, so a use of
   the stdlib's Random, Obj or Sys.time is an alert that fails the
   build, and =, <>, compare and Hashtbl.hash take only ints.  Each
   fixture is compiled with exactly those flags: the positive ones
   must fail with the expected error, the negative ones must build. *)

(* flags.sexp is one parenthesised list of atoms *)
let flags =
  String.map (function '(' | ')' | '\n' -> ' ' | c -> c) Prelude_build.flags
  |> String.split_on_char ' '
  |> List.filter (fun s -> not (String.equal s ""))

(* Type-check [src] as a lib/ module: [Ok ()] or [Error output]. *)
let compile src =
  let file = Filename.temp_file "prelude_fixture" ".ml" in
  let log = Filename.temp_file "prelude_fixture" ".log" in
  let oc = open_out_bin file in
  output_string oc src;
  close_out oc;
  (* the cmi path is relative to this executable's build directory *)
  let include_dir =
    Filename.concat (Filename.dirname Sys.executable_name)
      (Filename.dirname Prelude_build.prelude_cmi)
  in
  let args = [ "-i"; "-I"; include_dir ] @ flags @ [ file ] in
  let code = Sys.command (Filename.quote_command Prelude_build.ocamlc ~stdout:log ~stderr:log args) in
  let output = In_channel.with_open_bin log In_channel.input_all in
  Sys.remove file;
  Sys.remove log;
  if code = 0 then Ok () else Error output

let contains ~sub s =
  let n = String.length sub in
  let rec at i = i + n <= String.length s && (String.equal (String.sub s i n) sub || at (i + 1)) in
  at 0

let rejected fixtures =
  List.iter
    (fun (src, expected) ->
      match compile src with
      | Ok () -> Alcotest.failf "builds under lib/'s flags, must not:\n%s" src
      | Error output ->
        if not (contains ~sub:expected output) then
          Alcotest.failf "%s\nfails, but without %S:\n%s" src expected output)
    fixtures

let accepted fixtures =
  List.iter
    (fun src ->
      match compile src with
      | Ok () -> ()
      | Error output -> Alcotest.failf "%s\nmust build under lib/'s flags:\n%s" src output)
    fixtures

let nondet m = "Error (alert nondet): " ^ m
let unsafe m = "Error (alert unsafe): " ^ m

let test_rng_rejected () =
  rejected
    [
      ("let pick () = Random.int 10", nondet "module Repro_prelude.Random");
      ("let pick () = Stdlib.Random.int 10", nondet "module Repro_prelude.Stdlib.Random");
      ("let () = Random.self_init ()", nondet "module Repro_prelude.Random");
      ("let () = Stdlib.Random.self_init ()", nondet "module Repro_prelude.Stdlib.Random");
      ("let cpu () = Sys.time ()", nondet "Repro_prelude.Sys.time");
      ("let cpu () = Stdlib.Sys.time ()", nondet "Repro_prelude.Stdlib.Sys.time");
      (* no lib/ library depends on unix *)
      ("let now () = Unix.gettimeofday ()", "Error (alert ocaml_deprecated_auto_include)");
    ]

let test_rng_accepted () =
  accepted
    [
      "let words = Sys.word_size + Stdlib.Sys.word_size";
      "module Rng = struct let int bound = bound - 1 end\nlet pick () = Rng.int 10";
    ]

let test_unsafe_obj_rejected () =
  rejected
    [
      ("let cast x = Obj.magic x", unsafe "module Repro_prelude.Obj");
      ("let cast x = Stdlib.Obj.magic x", unsafe "module Repro_prelude.Stdlib.Obj");
    ]

(* Mutable protocol-state records, as the buffer pool, the pages and
   the transaction table keep them. *)
let state_types =
  "type frame = { id : int; mutable dirty : bool }\n\
   type page = { owner : int; mutable psn : int }\n\
   type descr = { txn : int; mutable committing : bool }\n"

let test_poly_compare_rejected () =
  rejected
    (List.map
       (fun (src, ty) -> (state_types ^ src, "This expression has type " ^ ty))
       [
         ("let same (frame : frame) other = frame = other", "frame");
         ("let differ (victim : frame) other = victim <> other", "frame");
         ("let order (page : page) other = compare page other", "page");
         ("let order (page : page) other = Stdlib.compare page other", "page");
         ("let same (descr : descr) other = descr = other", "descr");
         ("let same (descr : descr) other = Stdlib.( = ) descr other", "descr");
         ("let bucket (page : page) = Hashtbl.hash page", "page");
         ("let bucket (page : page) = Stdlib.Hashtbl.hash page", "page");
         ("let same (a : string) b = a = b", "string");
       ])

let test_poly_compare_accepted () =
  accepted
    [
      state_types
      ^ "module Frame = struct let equal (a : frame) b = a.id = b.id end\n\
         let same frame other = Frame.equal frame other\n\
         let eq a b = a = b\n\
         let order (page : page) other = Int.compare page.owner other.owner\n\
         let bucket (page : page) = Hashtbl.hash page.owner";
      "let ints = List.sort compare [ 3; 1 ]\n\
       let strings = List.sort String.compare [ \"b\"; \"a\" ]\n\
       let t : (string, int) Hashtbl.t = Hashtbl.create 8\n\
       let () = Hashtbl.replace t \"k\" (Stdlib.compare 1 2)";
    ]

let suite =
  [
    Alcotest.test_case "rng-discipline: fixtures do not build" `Quick test_rng_rejected;
    Alcotest.test_case "rng-discipline: clean idioms build" `Quick test_rng_accepted;
    Alcotest.test_case "no-poly-compare: state operands do not build" `Quick
      test_poly_compare_rejected;
    Alcotest.test_case "no-poly-compare: clean idioms build" `Quick test_poly_compare_accepted;
    Alcotest.test_case "no-unsafe-obj: Obj does not build" `Quick test_unsafe_obj_rejected;
  ]
