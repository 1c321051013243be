open Parsetree

(* ------------------------------------------------------------------ *)
(* Shared helpers                                                      *)
(* ------------------------------------------------------------------ *)

let in_lib rel = String.length rel >= 4 && String.sub rel 0 4 = "lib/"

let rec components = function
  | Longident.Lident s -> [ s ]
  | Longident.Ldot (p, s) -> components p @ [ s ]
  | Longident.Lapply (a, b) -> components a @ components b

let last_component lid = match List.rev (components lid) with s :: _ -> s | [] -> ""

(* Visit every expression of a structure, including nested modules. *)
let iter_exprs_in_structure f structure =
  let open Ast_iterator in
  let it =
    {
      default_iterator with
      expr =
        (fun self e ->
          f e;
          default_iterator.expr self e);
    }
  in
  it.structure it structure

let iter_exprs_in_expr f expr =
  let open Ast_iterator in
  let it =
    {
      default_iterator with
      expr =
        (fun self e ->
          f e;
          default_iterator.expr self e);
    }
  in
  it.expr it expr

(* Does [p] match every exception?  Returns the bound name for the
   re-raise exemption ([Some None] for [_], [Some (Some v)] for a
   variable or alias). *)
let rec catch_all p =
  match p.ppat_desc with
  | Ppat_any -> Some None
  | Ppat_var v -> Some (Some v.Asttypes.txt)
  | Ppat_alias (inner, v) -> (
    match catch_all inner with Some _ -> Some (Some v.Asttypes.txt) | None -> None)
  | Ppat_or (a, b) -> ( match catch_all a with Some _ as r -> r | None -> catch_all b)
  | Ppat_constraint (inner, _) -> catch_all inner
  | _ -> None

(* [body] re-raises the caught exception bound to [name]. *)
let reraises name body =
  let found = ref false in
  iter_exprs_in_expr
    (fun e ->
      match e.pexp_desc with
      | Pexp_apply
          ( { pexp_desc = Pexp_ident { txt = f; _ }; _ },
            (_, { pexp_desc = Pexp_ident { txt = Longident.Lident v; _ }; _ }) :: _ )
        when v = name && List.mem (last_component f) [ "raise"; "raise_notrace"; "reraise" ] ->
        found := true
      | _ -> ())
    body;
  !found

let ends_with suffix s = String.ends_with ~suffix s

(* ------------------------------------------------------------------ *)
(* Rule 1: swallowed-control-exn                                       *)
(* ------------------------------------------------------------------ *)

let swallowed_control_exn =
  {
    Lint.id = "swallowed-control-exn";
    doc =
      "no catch-all exception handlers in lib/: they absorb the Crash/Node_down control \
       exceptions (match specific exceptions, guard the case, or re-raise)";
    check =
      (fun ctx ->
        let check_case ~what c =
          (* A guarded case falls through for non-matching exceptions,
             so the control exceptions still propagate. *)
          if c.pc_guard = None then
            let pat, flagged =
              match c.pc_lhs.ppat_desc with
              | Ppat_exception inner -> (inner, catch_all inner)
              | _ -> (c.pc_lhs, if what = `Try then catch_all c.pc_lhs else None)
            in
            match flagged with
            | Some bound
              when (match bound with Some v -> not (reraises v c.pc_rhs) | None -> true) ->
              Lint.report_loc ctx ~rule:"swallowed-control-exn" pat.ppat_loc
                "catch-all exception handler can swallow Crash/Node_down control exceptions"
            | Some _ | None -> ()
        in
        List.iter
          (fun { Lint.rel; ast } ->
            match ast with
            | Lint.Intf _ -> ()
            | Lint.Impl structure ->
              if in_lib rel then
                iter_exprs_in_structure
                  (fun e ->
                    match e.pexp_desc with
                    | Pexp_try (_, cases) -> List.iter (check_case ~what:`Try) cases
                    | Pexp_match (_, cases) -> List.iter (check_case ~what:`Match) cases
                    | _ -> ())
                  structure)
          ctx.Lint.sources);
  }

(* ------------------------------------------------------------------ *)
(* Rule 2: rng-discipline                                              *)
(* ------------------------------------------------------------------ *)

(* The one module allowed to touch stdlib Random (today it does not
   even do that: the simulator runs on its own SplitMix64 streams). *)
let rng_modules = [ "lib/util/rng.ml" ]

let rng_discipline =
  {
    Lint.id = "rng-discipline";
    doc =
      "stdlib Random only in the designated RNG module (take a split Rng substream instead); \
       no Random.self_init / Unix.gettimeofday / Sys.time in lib/ (seed replay)";
    check =
      (fun ctx ->
        List.iter
          (fun { Lint.rel; ast } ->
            match ast with
            | Lint.Intf _ -> ()
            | Lint.Impl structure ->
              if in_lib rel then
                iter_exprs_in_structure
                  (fun e ->
                    match e.pexp_desc with
                    | Pexp_ident { txt; loc } -> (
                      let comps = components txt in
                      let comps =
                        match comps with "Stdlib" :: rest -> rest | _ -> comps
                      in
                      match comps with
                      | "Random" :: _ when last_component txt = "self_init" ->
                        Lint.report_loc ctx ~rule:"rng-discipline" loc
                          "Random.self_init breaks seed replay: every stream must derive \
                           from the run's seed"
                      | "Random" :: _ when not (List.mem rel rng_modules) ->
                        Lint.report_loc ctx ~rule:"rng-discipline" loc
                          (Printf.sprintf
                             "stdlib Random outside %s: draw from a split Rng substream so \
                              historical seeds stay bit-identical"
                             (String.concat ", " rng_modules))
                      | [ "Unix"; "gettimeofday" ] | [ "Unix"; "time" ] | [ "Sys"; "time" ] ->
                        Lint.report_loc ctx ~rule:"rng-discipline" loc
                          "wall-clock time in lib/ breaks deterministic replay: use the \
                           simulated clock (Env.now)"
                      | _ -> ())
                    | _ -> ())
                  structure)
          ctx.Lint.sources);
  }

(* ------------------------------------------------------------------ *)
(* Rule 3: no-poly-compare                                             *)
(* ------------------------------------------------------------------ *)

(* Identifier names that, in this codebase, denote mutable protocol
   state records (buffer-pool frames, pages, transaction descriptors):
   polymorphic comparison on them compares transient mutable fields. *)
let stateful_names = [ "frame"; "page"; "victim"; "descr"; "pool" ]
let stateful_suffixes = [ "_frame"; "_page"; "_descr"; "_pool" ]

let is_stateful name =
  List.mem name stateful_names || List.exists (fun s -> ends_with s name) stateful_suffixes

let poly_compare_op lid =
  match components lid with
  | [ "=" ] | [ "<>" ] | [ "compare" ] | [ "Stdlib"; "compare" ] -> Some (last_component lid)
  | comps when List.rev comps = [ "hash"; "Hashtbl" ] -> Some "Hashtbl.hash"
  | _ -> None

let no_poly_compare =
  {
    Lint.id = "no-poly-compare";
    doc =
      "no polymorphic =/compare/Hashtbl.hash on identifiers naming mutable protocol state \
       (frames, pages, descriptors): use the module's explicit equal";
    check =
      (fun ctx ->
        List.iter
          (fun { Lint.rel; ast } ->
            match ast with
            | Lint.Intf _ -> ()
            | Lint.Impl structure ->
              if in_lib rel then
                iter_exprs_in_structure
                  (fun e ->
                    match e.pexp_desc with
                    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; loc }; _ }, args) -> (
                      match poly_compare_op txt with
                      | Some op ->
                        List.iter
                          (fun (_, (arg : expression)) ->
                            match arg.pexp_desc with
                            | Pexp_ident { txt = Longident.Lident name; _ }
                              when is_stateful name ->
                              Lint.report_loc ctx ~rule:"no-poly-compare" loc
                                (Printf.sprintf
                                   "polymorphic %s on `%s` compares transient mutable \
                                    state; use the owning module's equal/compare"
                                   op name)
                            | _ -> ())
                          args
                      | None -> ())
                    | _ -> ())
                  structure)
          ctx.Lint.sources);
  }

(* ------------------------------------------------------------------ *)
(* Rule 4: no-unsafe-obj                                               *)
(* ------------------------------------------------------------------ *)

let no_unsafe_obj =
  {
    Lint.id = "no-unsafe-obj";
    doc = "no Obj.* in lib/: unsafe casts void every invariant the other rules police";
    check =
      (fun ctx ->
        List.iter
          (fun { Lint.rel; ast } ->
            match ast with
            | Lint.Intf _ -> ()
            | Lint.Impl structure ->
              if in_lib rel then
                iter_exprs_in_structure
                  (fun e ->
                    match e.pexp_desc with
                    | Pexp_ident { txt; loc } when List.mem "Obj" (components txt) ->
                      Lint.report_loc ctx ~rule:"no-unsafe-obj" loc
                        "Obj.* is forbidden in lib/"
                    | _ -> ())
                  structure)
          ctx.Lint.sources);
  }

(* ------------------------------------------------------------------ *)

let all = [ swallowed_control_exn; rng_discipline; no_poly_compare; no_unsafe_obj ]

let find id = List.find_opt (fun r -> r.Lint.id = id) all
