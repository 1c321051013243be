open Parsetree

(* ------------------------------------------------------------------ *)
(* Shared helpers                                                      *)
(* ------------------------------------------------------------------ *)

let in_lib rel = String.length rel >= 4 && String.sub rel 0 4 = "lib/"

let components = Summary.components
let last_component = Summary.last_component

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
(* Shared whole-repo analysis (phase 1 + 2), memoized per run          *)
(* ------------------------------------------------------------------ *)

(* The implementation layers each pairing rule exempts: the modules
   that ARE the force (and the cost-charging layer below it) cannot
   pair with the sweep without a dependency cycle — Group_commit wraps
   Log_manager, not the other way round.  Likewise the lock manager is
   the one place allowed a bare early release, the RNG module is where
   draws are implemented, and Block is where the raises are minted. *)
let analysis_config =
  {
    Propagate.force_impl =
      [ "lib/wal/group_commit.ml"; "lib/wal/log_manager.ml"; "lib/sim/env.ml" ];
    elr_impl = [ "lib/lock/local_locks.ml" ];
    rng_impl = [ "lib/util/rng.ml" ];
    raise_impl = [ "lib/core/block.ml" ];
    checked = in_lib;
  }

type analysis = { files : Summary.file list; prop : Propagate.t }

(* The five interprocedural rules share one analysis per [Lint.run]:
   keyed on the physical ctx, which the engine builds fresh each run. *)
let memo : (Lint.ctx * analysis) option ref = ref None

let analysis (ctx : Lint.ctx) =
  match !memo with
  | Some (c, a) when c == ctx -> a
  | _ ->
    let files = Summary.of_sources ctx.Lint.sources in
    let graph = Callgraph.build files in
    let prop = Propagate.run analysis_config graph in
    let a = { files; prop } in
    memo := Some (ctx, a);
    a

(* ------------------------------------------------------------------ *)
(* Rule 1: ipc-force-sweep (interprocedural force/sweep pairing)       *)
(* ------------------------------------------------------------------ *)

let report_cov ctx ~rule msg_of =
  List.iter
    (fun (c : Propagate.cov_site) ->
      ctx.Lint.report ~rule ~file:c.Propagate.c_file ~line:c.Propagate.c_loc.Summary.line
        ~col:c.Propagate.c_loc.Summary.col (msg_of c))

let ipc_force_sweep =
  {
    Lint.id = "ipc-force-sweep";
    doc =
      "a log force outside the force-implementation layer must have a Group_commit.on_force \
       sweep reachable in its call neighborhood — in the same function, a callee, or some \
       caller up the graph (force-to-device-end invariant, interprocedural)";
    check =
      (fun ctx ->
        let a = analysis ctx in
        report_cov ctx ~rule:"ipc-force-sweep"
          (fun c ->
            Printf.sprintf
              "%s in %s pairs with no reachable Group_commit.on_force sweep on any call \
               path: pending group-commit records this force made durable would stay \
               pending and be lost/retried"
              c.Propagate.c_what c.Propagate.c_fn)
          (Propagate.violations_force a.prop));
  }

(* ------------------------------------------------------------------ *)
(* Rule 2: swallowed-control-exn                                       *)
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
(* Rule 3: rng-discipline                                              *)
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
(* Rule 4: no-poly-compare                                             *)
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
(* Rule 5: no-unsafe-obj                                               *)
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
(* Rule 6: ipc-elr-pairing (interprocedural ELR release/record)        *)
(* ------------------------------------------------------------------ *)

let ipc_elr_pairing =
  {
    Lint.id = "ipc-elr-pairing";
    doc =
      "an early lock release (Local_locks.release_txn_early) outside lib/lock must have an \
       elr_record_release reachable in its call neighborhood — release and recording may \
       live in different functions, but a release no caller or callee ever records would \
       let later acquirers observe pre-durable state with no commit dependency";
    check =
      (fun ctx ->
        let a = analysis ctx in
        report_cov ctx ~rule:"ipc-elr-pairing"
          (fun c ->
            Printf.sprintf
              "%s in %s pairs with no reachable elr_record_release on any call path: \
               acquirers of these pages would observe pre-durable state with no commit \
               dependency recorded"
              c.Propagate.c_what c.Propagate.c_fn)
          (Propagate.violations_elr a.prop));
  }

(* ------------------------------------------------------------------ *)
(* Rule 7: exn-flow                                                    *)
(* ------------------------------------------------------------------ *)

let exn_flow =
  {
    Lint.id = "exn-flow";
    doc =
      "every raise of a retryable control exception (Would_block and its Node_down / \
       Page_unavailable / Net_unreachable refinements) in lib/ must be able to reach a \
       matching handler on some call path — a raise no driver/stress/recovery context can \
       catch would kill the run instead of being retried";
    check =
      (fun ctx ->
        let a = analysis ctx in
        List.iter
          (fun (r : Propagate.raise_site) ->
            ctx.Lint.report ~rule:"exn-flow" ~file:r.Propagate.r_file
              ~line:r.Propagate.r_loc.Summary.line ~col:r.Propagate.r_loc.Summary.col
              (Printf.sprintf
                 "raise of %s in %s can reach no matching Would_block handler on any call \
                  path: the retry protocol never sees it"
                 (Summary.label_name r.Propagate.r_label)
                 r.Propagate.r_fn))
          (Propagate.unhandled_raises a.prop));
  }

(* ------------------------------------------------------------------ *)
(* Rule 8: dead-handler                                                *)
(* ------------------------------------------------------------------ *)

let dead_handler =
  {
    Lint.id = "dead-handler";
    doc =
      "a handler that explicitly matches Would_block must be feedable: something its \
       guarded body reaches (resolved callees, invoked closure fields, direct raises) can \
       raise a label it matches — an unfeedable handler is dead protocol code or a retry \
       boundary that drifted away from the raise it used to cover";
    check =
      (fun ctx ->
        let a = analysis ctx in
        List.iter
          (fun (f : Summary.file) ->
            List.iter
              (fun (fn : Summary.fn) ->
                List.iter
                  (fun (h : Summary.handler) ->
                    if not (Propagate.handler_live a.prop a.files ~rel:f.Summary.rel h) then
                      ctx.Lint.report ~rule:"dead-handler" ~file:f.Summary.rel
                        ~line:h.Summary.h_loc.Summary.line ~col:h.Summary.h_loc.Summary.col
                        (Printf.sprintf
                           "handler for %s in %s: nothing its guarded body reaches can \
                            raise a label it matches"
                           (String.concat "/"
                              (List.map Summary.label_name h.Summary.h_labels))
                           fn.Summary.fn_name))
                  fn.Summary.handlers)
              f.Summary.fns)
          a.files);
  }

(* ------------------------------------------------------------------ *)
(* Rule 9: rng-reachability                                            *)
(* ------------------------------------------------------------------ *)

let rng_reachability =
  {
    Lint.id = "rng-reachability";
    doc =
      "a sim-RNG draw in lib/ must have an Rng.create/Rng.split reachable in its call \
       neighborhood: a draw on a stream no root ever seeds or splits is invisible to seed \
       replay and silently breaks bit-identical reruns";
    check =
      (fun ctx ->
        let a = analysis ctx in
        report_cov ctx ~rule:"rng-reachability"
          (fun c ->
            Printf.sprintf
              "%s in %s is not reachable from any seeded root (no Rng.create/Rng.split in \
               its call neighborhood): this stream escapes seed replay"
              c.Propagate.c_what c.Propagate.c_fn)
          (Propagate.violations_rng a.prop));
  }

(* ------------------------------------------------------------------ *)

let all =
  [
    ipc_force_sweep;
    swallowed_control_exn;
    rng_discipline;
    no_poly_compare;
    no_unsafe_obj;
    ipc_elr_pairing;
    exn_flow;
    dead_handler;
    rng_reachability;
  ]

let find id = List.find_opt (fun r -> r.Lint.id = id) all
