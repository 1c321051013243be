open Parsetree

(* Per-function effect summaries over the untyped AST: phase 1 of the
   whole-repo analysis.  Each top-level binding becomes one [fn] whose
   [sites] record every protocol-relevant effect inside it (raises of
   the retryable control exceptions, log forces, group-commit sweeps,
   early lock releases and their recording, RNG seeding and draws,
   crash points) plus the intra-repo calls phase 2 resolves into graph
   edges. *)

(* ------------------------------------------------------------------ *)
(* Longident helpers (shared with the per-file rules)                  *)
(* ------------------------------------------------------------------ *)

let rec components = function
  | Longident.Lident s -> [ s ]
  | Longident.Ldot (p, s) -> components p @ [ s ]
  | Longident.Lapply (a, b) -> components a @ components b

let last_component lid = match List.rev (components lid) with s :: _ -> s | [] -> ""

let parent_module lid =
  match List.rev (components lid) with _ :: m :: _ -> Some m | _ -> None

(* ------------------------------------------------------------------ *)
(* Types                                                               *)
(* ------------------------------------------------------------------ *)

type exn_label = Would_block | Node_down | Page_unavailable | Net_unreachable

let all_labels = [ Would_block; Node_down; Page_unavailable; Net_unreachable ]

let label_name = function
  | Would_block -> "Would_block"
  | Node_down -> "Node_down"
  | Page_unavailable -> "Page_unavailable"
  | Net_unreachable -> "Net_unreachable"

let label_of_name = function
  | "Would_block" -> Some Would_block
  | "Node_down" -> Some Node_down
  | "Page_unavailable" -> Some Page_unavailable
  | "Net_unreachable" -> Some Net_unreachable
  | _ -> None

(* [Would_block] is the generic label (a reason we do not refine, or a
   reason variable): any handler that matches some [Would_block] case
   covers it.  The refined labels need a handler matching that reason
   or a catch-all/[Would_block _] pattern. *)
let covers ~handled label =
  match label with
  | Would_block -> handled <> []
  | l -> List.mem l handled

type loc = { line : int; col : int }

type site_kind =
  | Call of { path : string list; applied : bool }
  | Field_call of { field : string }
  | Raise of { label : exn_label }
  | Force of { name : string }
  | Sweep
  | Elr_release
  | Elr_record
  | Rng_draw of { name : string }
  | Rng_seed of { name : string }

type site = {
  kind : site_kind;
  s_loc : loc;
  wired : string option;
      (** the record field / labeled hook this site's enclosing closure
          is stored under, if any: the call graph re-attaches such sites
          to the synthetic [field:NAME] node because they run when the
          field is invoked, not when the defining function runs *)
}

type handler = {
  h_labels : exn_label list;  (** what the pattern matches *)
  h_loc : loc;
  h_calls : string list list;  (** ident paths mentioned in the guarded body *)
  h_fields : string list;  (** record fields invoked in the guarded body *)
  h_unknown : bool;  (** guarded body applies something unresolvable *)
  h_raises : exn_label list;  (** direct raises inside the guarded body *)
}

type fn = {
  fn_name : string;
  fn_loc : loc;
  handled : exn_label list;
  sites : site list;
  handlers : handler list;
}

type file = {
  rel : string;
  module_name : string;
  aliases : (string * string) list;  (** [module X = A.B] → [(X, B)] *)
  opens : string list;  (** [open M] / [M.(...)]: unqualified-resolution fallback *)
  fns : fn list;
}

(* ------------------------------------------------------------------ *)
(* Effect-primitive classification                                     *)
(* ------------------------------------------------------------------ *)

let force_names = [ "force"; "force_all"; "force_shared" ]

let is_force_ident lid =
  let name = last_component lid in
  (parent_module lid = Some "Log_manager" && List.mem name force_names)
  || String.starts_with ~prefix:"charge_log_force" name

let rng_draw_names =
  [ "next_int64"; "int"; "int_in_range"; "float"; "bool"; "chance"; "pick"; "shuffle" ]

let rng_seed_names = [ "create"; "split" ]

let loc_of (l : Location.t) =
  let p = l.Location.loc_start in
  { line = p.Lexing.pos_lnum; col = p.Lexing.pos_cnum - p.Lexing.pos_bol }

(* The label of a raised reason expression: [Block.block (Block.Node_down n)]
   refines to [Node_down]; reason variables and the non-retryable
   constructors stay at the generic [Would_block]. *)
let label_of_reason (e : expression) =
  match e.pexp_desc with
  | Pexp_construct ({ txt; _ }, _) -> (
    match label_of_name (last_component txt) with
    | Some (Node_down | Page_unavailable | Net_unreachable) as l -> Option.get l
    | _ -> Would_block)
  | _ -> Would_block

(* Labels an exception pattern handles; [] when it cannot match any
   [Would_block].  [explicit] is true when the pattern names
   [Would_block] (as opposed to a catch-all), i.e. the handler exists
   *because* of the retryable protocol and is worth dead-checking. *)
let rec handled_labels p =
  match p.ppat_desc with
  | Ppat_any | Ppat_var _ -> (all_labels, false)
  | Ppat_alias (inner, _) | Ppat_constraint (inner, _) -> handled_labels inner
  | Ppat_or (a, b) ->
    let la, ea = handled_labels a and lb, eb = handled_labels b in
    (List.sort_uniq compare (la @ lb), ea || eb)
  | Ppat_construct ({ txt; _ }, arg) when last_component txt = "Would_block" ->
    let labels =
      match arg with
      | None -> all_labels
      | Some (_, ap) -> reason_labels ap
    in
    (labels, true)
  | _ -> ([], false)

and reason_labels p =
  match p.ppat_desc with
  | Ppat_any | Ppat_var _ -> all_labels
  | Ppat_alias (inner, _) | Ppat_constraint (inner, _) -> reason_labels inner
  | Ppat_or (a, b) -> List.sort_uniq compare (reason_labels a @ reason_labels b)
  | Ppat_construct ({ txt; _ }, _) -> (
    match label_of_name (last_component txt) with
    | Some (Node_down | Page_unavailable | Net_unreachable) as l -> [ Option.get l ]
    | _ -> [ Would_block ])
  | _ -> [ Would_block ]

(* ------------------------------------------------------------------ *)
(* Extraction                                                          *)
(* ------------------------------------------------------------------ *)

(* What a handler's guarded body can feed it with: mentioned ident
   paths, invoked record fields, direct raises, and whether anything
   unresolvable is applied (then the handler is conservatively live). *)
let handler_feed body =
  let calls = ref [] and fields = ref [] and unknown = ref false and raises = ref [] in
  let it =
    let open Ast_iterator in
    {
      default_iterator with
      expr =
        (fun self e ->
          (match e.pexp_desc with
          | Pexp_ident { txt; _ } -> calls := components txt :: !calls
          | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args) -> (
            match last_component txt with
            | "block" when parent_module txt = Some "Block" -> (
              match args with
              | (_, reason) :: _ -> raises := label_of_reason reason :: !raises
              | [] -> ())
            | "raise" | "raise_notrace" -> (
              match args with
              | (_, { pexp_desc = Pexp_construct ({ txt = c; _ }, arg); _ }) :: _
                when last_component c = "Would_block" ->
                raises :=
                  (match arg with Some a -> label_of_reason a | None -> Would_block)
                  :: !raises
              | _ -> ())
            | _ -> ())
          | Pexp_apply ({ pexp_desc = Pexp_field (_, { txt; _ }); _ }, _) ->
            fields := last_component txt :: !fields
          | Pexp_apply _ | Pexp_send _ -> unknown := true
          | _ -> ());
          default_iterator.expr self e);
    }
  in
  it.Ast_iterator.expr it body;
  ( List.sort_uniq compare !calls,
    List.sort_uniq compare !fields,
    !unknown,
    List.sort_uniq compare !raises )

(* One function body → sites + handlers.  [wired] tracks the record
   field or labeled hook argument the current subtree is being stored
   under (see {!site.wired}). *)
let extract_body body =
  let sites = ref [] and handlers = ref [] and handled = ref [] in
  let seen_heads : (int * int, unit) Hashtbl.t = Hashtbl.create 16 in
  let wired = ref None in
  let add kind (l : Location.t) = sites := { kind; s_loc = loc_of l; wired = !wired } :: !sites in
  let with_wired w f =
    let old = !wired in
    wired := w;
    f ();
    wired := old
  in
  let key (l : Location.t) =
    let p = l.Location.loc_start in
    (p.Lexing.pos_lnum, p.Lexing.pos_cnum)
  in
  (* Classify one identifier occurrence.  [applied] distinguishes a
     call head from a bare mention (a value being passed/stored).
     Effect primitives ALSO record a [Call] site: the implementation
     function behind e.g. [Group_commit.on_force] must receive graph
     edges, or it would look like an uncalled root. *)
  let classify_ident ~applied ~args txt (loc : Location.t) =
    let name = last_component txt in
    let add_call () = add (Call { path = components txt; applied }) loc in
    if is_force_ident txt then begin
      if applied then add (Force { name }) loc;
      add_call ()
    end
    else if name = "on_force" then begin
      add Sweep loc;
      add_call ()
    end
    else if name = "release_txn_early" then begin
      add Elr_release loc;
      add_call ()
    end
    else if name = "elr_record_release" then begin
      add Elr_record loc;
      add_call ()
    end
    else if parent_module txt = Some "Rng" && List.mem name rng_draw_names then begin
      add (Rng_draw { name }) loc;
      add_call ()
    end
    else if parent_module txt = Some "Rng" && List.mem name rng_seed_names then begin
      add (Rng_seed { name }) loc;
      add_call ()
    end
    else if applied && name = "block" && parent_module txt = Some "Block" then (
      match args with
      | (_, reason) :: _ -> add (Raise { label = label_of_reason reason }) loc
      | [] -> add_call ())
    else if applied && (name = "raise" || name = "raise_notrace") then (
      match args with
      | (_, { pexp_desc = Pexp_construct ({ txt = c; _ }, arg); _ }) :: _
        when last_component c = "Would_block" ->
        add
          (Raise
             { label = (match arg with Some a -> label_of_reason a | None -> Would_block) })
          loc
      | _ -> ())
    else add_call ()
  in
  let record_handler ~scrutinee case =
    if case.pc_guard = None then begin
      let labels, explicit =
        match case.pc_lhs.ppat_desc with
        | Ppat_exception inner -> handled_labels inner
        | _ -> handled_labels case.pc_lhs
      in
      if labels <> [] then begin
        handled := List.sort_uniq compare (labels @ !handled);
        if explicit then begin
          let h_calls, h_fields, h_unknown, h_raises = handler_feed scrutinee in
          handlers :=
            {
              h_labels = labels;
              h_loc = loc_of case.pc_lhs.ppat_loc;
              h_calls;
              h_fields;
              h_unknown;
              h_raises;
            }
            :: !handlers
        end
      end
    end
  in
  let it =
    let open Ast_iterator in
    {
      default_iterator with
      expr =
        (fun self e ->
          match e.pexp_desc with
          | Pexp_apply (head, args) ->
            (match head.pexp_desc with
            | Pexp_ident { txt; loc } ->
              Hashtbl.replace seen_heads (key loc) ();
              classify_ident ~applied:true ~args txt loc
            | Pexp_field (_, { txt; loc }) ->
              Hashtbl.replace seen_heads (key loc) ();
              add (Field_call { field = last_component txt }) loc
            | _ -> ());
            self.expr self head;
            List.iter
              (fun ((lbl : Asttypes.arg_label), (arg : expression)) ->
                match (lbl, arg.pexp_desc) with
                | (Asttypes.Labelled l | Asttypes.Optional l), (Pexp_fun _ | Pexp_function _)
                  ->
                  with_wired (Some l) (fun () -> self.expr self arg)
                | _ -> self.expr self arg)
              args
          | Pexp_ident { txt; loc } ->
            if not (Hashtbl.mem seen_heads (key loc)) then
              classify_ident ~applied:false ~args:[] txt loc
          | Pexp_field (_, { txt; loc }) ->
            (* bare field mention: a stored closure being passed on *)
            if not (Hashtbl.mem seen_heads (key loc)) then
              add (Field_call { field = last_component txt }) loc;
            default_iterator.expr self e
          | Pexp_record (fields, base) ->
            Option.iter (self.expr self) base;
            List.iter
              (fun (({ txt; _ } : Longident.t Asttypes.loc), v) ->
                with_wired (Some (last_component txt)) (fun () -> self.expr self v))
              fields
          | Pexp_setfield (obj, { txt; _ }, v) ->
            self.expr self obj;
            with_wired (Some (last_component txt)) (fun () -> self.expr self v)
          | Pexp_try (body, cases) ->
            List.iter (record_handler ~scrutinee:body) cases;
            default_iterator.expr self e
          | Pexp_match (scrutinee, cases) ->
            List.iter
              (fun c ->
                match c.pc_lhs.ppat_desc with
                | Ppat_exception _ -> record_handler ~scrutinee c
                | _ -> ())
              cases;
            default_iterator.expr self e
          | _ -> default_iterator.expr self e);
    }
  in
  it.Ast_iterator.expr it body;
  (List.rev !sites, List.rev !handlers, !handled)

(* Top-level bindings (descending plain sub-modules and functors) plus
   [Pstr_eval] items, which act as anonymous module-initialization
   functions and are the natural call-graph roots of executables. *)
let top_level_fns structure =
  let acc = ref [] in
  let rec item i =
    match i.pstr_desc with
    | Pstr_value (_, vbs) ->
      List.iter
        (fun vb ->
          let name =
            match vb.pvb_pat.ppat_desc with
            | Ppat_var v -> v.Asttypes.txt
            | _ -> Printf.sprintf "(init:%d)" vb.pvb_loc.Location.loc_start.Lexing.pos_lnum
          in
          acc := (name, vb.pvb_loc, vb.pvb_expr) :: !acc)
        vbs
    | Pstr_eval (e, _) ->
      acc :=
        ( Printf.sprintf "(toplevel:%d)" i.pstr_loc.Location.loc_start.Lexing.pos_lnum,
          i.pstr_loc,
          e )
        :: !acc
    | Pstr_module mb -> module_expr mb.pmb_expr
    | Pstr_recmodule mbs -> List.iter (fun mb -> module_expr mb.pmb_expr) mbs
    | _ -> ()
  and module_expr me =
    match me.pmod_desc with
    | Pmod_structure s -> List.iter item s
    | Pmod_functor (_, body) -> module_expr body
    | Pmod_constraint (inner, _) -> module_expr inner
    | _ -> ()
  in
  List.iter item structure;
  List.rev !acc

let module_aliases structure =
  List.filter_map
    (fun i ->
      match i.pstr_desc with
      | Pstr_module { pmb_name = { txt = Some name; _ }; pmb_expr; _ } -> (
        match pmb_expr.pmod_desc with
        | Pmod_ident { txt; _ } -> Some (name, last_component txt)
        | _ -> None)
      | _ -> None)
    structure

(* Opened modules, both structure-level [open M] and expression-level
   [let open M in] / [M.(...)], flattened to file scope: an unqualified
   name that is not a local binding may come from any of them. *)
let module_opens structure =
  let acc = ref [] in
  let note (me : module_expr) =
    match me.pmod_desc with
    | Pmod_ident { txt; _ } -> acc := last_component txt :: !acc
    | _ -> ()
  in
  let it =
    let open Ast_iterator in
    {
      default_iterator with
      open_declaration =
        (fun self od ->
          note od.popen_expr;
          default_iterator.open_declaration self od);
    }
  in
  it.Ast_iterator.structure it structure;
  List.sort_uniq compare !acc

let module_name_of_rel rel = String.capitalize_ascii Filename.(remove_extension (basename rel))

let of_structure ~rel structure =
  let fns =
    List.map
      (fun (fn_name, loc, body) ->
        let sites, handlers, handled = extract_body body in
        { fn_name; fn_loc = loc_of loc; handled; sites; handlers })
      (top_level_fns structure)
  in
  {
    rel;
    module_name = module_name_of_rel rel;
    aliases = module_aliases structure;
    opens = module_opens structure;
    fns;
  }

(* ------------------------------------------------------------------ *)
(* JSON encoder (--dump-summaries)                                     *)
(* ------------------------------------------------------------------ *)

module J = Repro_obs.Json

let loc_to_json l = J.Obj [ ("line", J.Int l.line); ("col", J.Int l.col) ]

let kind_to_json = function
  | Call { path; applied } ->
    J.Obj
      [
        ("k", J.Str "call");
        ("path", J.List (List.map (fun s -> J.Str s) path));
        ("applied", J.Bool applied);
      ]
  | Field_call { field } -> J.Obj [ ("k", J.Str "field_call"); ("field", J.Str field) ]
  | Raise { label } -> J.Obj [ ("k", J.Str "raise"); ("label", J.Str (label_name label)) ]
  | Force { name } -> J.Obj [ ("k", J.Str "force"); ("name", J.Str name) ]
  | Sweep -> J.Obj [ ("k", J.Str "sweep") ]
  | Elr_release -> J.Obj [ ("k", J.Str "elr_release") ]
  | Elr_record -> J.Obj [ ("k", J.Str "elr_record") ]
  | Rng_draw { name } -> J.Obj [ ("k", J.Str "rng_draw"); ("name", J.Str name) ]
  | Rng_seed { name } -> J.Obj [ ("k", J.Str "rng_seed"); ("name", J.Str name) ]

let site_to_json s =
  J.Obj
    ([ ("kind", kind_to_json s.kind); ("loc", loc_to_json s.s_loc) ]
    @ match s.wired with None -> [] | Some w -> [ ("wired", J.Str w) ])

let labels_to_json ls = J.List (List.map (fun l -> J.Str (label_name l)) ls)

let handler_to_json h =
  J.Obj
    [
      ("labels", labels_to_json h.h_labels);
      ("loc", loc_to_json h.h_loc);
      ("calls", J.List (List.map (fun p -> J.List (List.map (fun s -> J.Str s) p)) h.h_calls));
      ("fields", J.List (List.map (fun s -> J.Str s) h.h_fields));
      ("unknown", J.Bool h.h_unknown);
      ("raises", labels_to_json h.h_raises);
    ]

let fn_to_json f =
  J.Obj
    [
      ("name", J.Str f.fn_name);
      ("loc", loc_to_json f.fn_loc);
      ("handled", labels_to_json f.handled);
      ("sites", J.List (List.map site_to_json f.sites));
      ("handlers", J.List (List.map handler_to_json f.handlers));
    ]

let file_to_json f =
  J.Obj
    [
      ("rel", J.Str f.rel);
      ("module", J.Str f.module_name);
      ( "aliases",
        J.Obj (List.map (fun (a, m) -> (a, J.Str m)) f.aliases) );
      ("opens", J.List (List.map (fun m -> J.Str m) f.opens));
      ("fns", J.List (List.map fn_to_json f.fns));
    ]

let to_json files = J.Obj [ ("files", J.List (List.map file_to_json files)) ]

let of_sources (sources : Lint.source list) =
  List.filter_map
    (fun (s : Lint.source) ->
      match s.Lint.ast with
      | Lint.Intf _ -> None
      | Lint.Impl structure -> Some (of_structure ~rel:s.Lint.rel structure))
    sources
