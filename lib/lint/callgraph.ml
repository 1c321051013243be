(* Phase-1b: resolve effect-summary call sites into a whole-repo call
   graph.  Resolution is best-effort over the untyped AST:

   - [M.f] resolves through the per-file [module X = ...] alias table,
     then by capitalized file basename (unique across this repo), then
     to [f] among that file's top-level bindings.  A module that maps
     to no repo file is external and ignored; a repo module without a
     binding [f] lands in the explicit unknown-callee bucket.
   - An unqualified [f] resolves only against the same file's top-level
     bindings (locals and parameters resolve to nothing, silently).
   - [x.f args] and closures stored into record fields / labeled hooks
     meet at a synthetic [field:f] node: wiring sites (a fun literal
     assigned to field [f]) push their calls and raises onto the node,
     call-through-field sites draw an edge to it.  Field names are
     global, so same-named fields of different record types merge —
     conservative for exception flow. *)

type node = {
  id : int;
  name : string;  (** ["rel#fn"] or ["field:f"] *)
  file : string option;
  fn : Summary.fn option;  (** [None] for synthetic field nodes *)
  mutable succ : int list;
  mutable field_raises : (Summary.exn_label * Summary.loc * string) list;
      (** raises wired into a field node: label, loc, defining file *)
}

type t = {
  nodes : node array;
  in_deg : int array;
  unknown : (string * int) list;  (** qualified name → applied-call count *)
}

(* Resolution shared by edge construction and the dead-handler rule. *)
type resolution = Fn_key of (string * string) | External | Unknown of string | Local

let resolve ~module_index ~binding_exists (f : Summary.file) path =
  let path = match path with "Stdlib" :: rest -> rest | p -> p in
  match List.rev path with
  | [] -> Local
  | [ name ] ->
    if binding_exists (f.Summary.rel, name) then Fn_key (f.Summary.rel, name)
    else (
      (* Unqualified but not bound here: it may come from an opened
         repo module (e.g. node.ml's [open Node_state]). *)
      let via_open =
        List.find_map
          (fun m ->
            match Hashtbl.find_opt module_index m with
            | Some (target : Summary.file) when binding_exists (target.Summary.rel, name) ->
              Some (Fn_key (target.Summary.rel, name))
            | _ -> None)
          f.Summary.opens
      in
      match via_open with Some r -> r | None -> Local)
  | name :: m :: _ -> (
    let m = match List.assoc_opt m f.Summary.aliases with Some t -> t | None -> m in
    match Hashtbl.find_opt module_index m with
    | None -> External
    | Some (target : Summary.file) ->
      if binding_exists (target.Summary.rel, name) then Fn_key (target.Summary.rel, name)
      else Unknown (m ^ "." ^ name))

let indexes (files : Summary.file list) =
  let module_index : (string, Summary.file) Hashtbl.t = Hashtbl.create 64 in
  List.iter (fun f -> Hashtbl.replace module_index f.Summary.module_name f) files;
  let bindings : (string * string, unit) Hashtbl.t = Hashtbl.create 256 in
  List.iter
    (fun f ->
      List.iter
        (fun (fn : Summary.fn) -> Hashtbl.replace bindings (f.Summary.rel, fn.Summary.fn_name) ())
        f.Summary.fns)
    files;
  (module_index, fun key -> Hashtbl.mem bindings key)

let build (files : Summary.file list) =
  let module_index, binding_exists = indexes files in
  (* All nodes up front: every fn, then every field name referenced by
     a field call or a wiring site. *)
  let count = List.fold_left (fun acc f -> acc + List.length f.Summary.fns) 0 files in
  let field_names =
    let tbl = Hashtbl.create 32 in
    List.iter
      (fun f ->
        List.iter
          (fun (fn : Summary.fn) ->
            List.iter
              (fun (s : Summary.site) ->
                (match s.Summary.wired with Some w -> Hashtbl.replace tbl w () | None -> ());
                match s.Summary.kind with
                | Summary.Field_call { field } -> Hashtbl.replace tbl field ()
                | _ -> ())
              fn.Summary.sites)
          f.Summary.fns)
      files;
    Hashtbl.fold (fun k () acc -> k :: acc) tbl [] |> List.sort compare
  in
  let total = count + List.length field_names in
  let nodes =
    Array.make total
      { id = 0; name = ""; file = None; fn = None; succ = []; field_raises = [] }
  in
  (* Later bindings shadow earlier ones of the same name, so the last
     (rel, name) registration wins — matching what a caller's reference
     resolves to at the bottom of the file. *)
  let binding_index : (string * string, int) Hashtbl.t = Hashtbl.create 256 in
  let field_index : (string, int) Hashtbl.t = Hashtbl.create 32 in
  let next = ref 0 in
  let fn_triples = ref [] in
  List.iter
    (fun f ->
      List.iter
        (fun (fn : Summary.fn) ->
          let id = !next in
          incr next;
          nodes.(id) <-
            {
              id;
              name = f.Summary.rel ^ "#" ^ fn.Summary.fn_name;
              file = Some f.Summary.rel;
              fn = Some fn;
              succ = [];
              field_raises = [];
            };
          Hashtbl.replace binding_index (f.Summary.rel, fn.Summary.fn_name) id;
          fn_triples := (f, fn, id) :: !fn_triples)
        f.Summary.fns)
    files;
  let fn_triples = List.rev !fn_triples in
  List.iter
    (fun fname ->
      let id = !next in
      incr next;
      nodes.(id) <-
        { id; name = "field:" ^ fname; file = None; fn = None; succ = []; field_raises = [] };
      Hashtbl.replace field_index fname id)
    field_names;
  let unknown : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let add_edge src dst =
    if not (List.mem dst nodes.(src).succ) then nodes.(src).succ <- dst :: nodes.(src).succ
  in
  List.iter
    (fun ((f : Summary.file), (fn : Summary.fn), self_id) ->
      List.iter
        (fun (s : Summary.site) ->
          (* The effect runs under the defining function *and*, when the
             enclosing closure is stored into a field, under callers of
             that field. *)
          let holders =
            self_id
            :: (match s.Summary.wired with
               | None -> []
               | Some w -> [ Hashtbl.find field_index w ])
          in
          match s.Summary.kind with
          | Summary.Call { path; applied } -> (
            match resolve ~module_index ~binding_exists f path with
            | Fn_key key ->
              let id = Hashtbl.find binding_index key in
              List.iter (fun h -> if h <> id then add_edge h id) holders
            | Unknown q ->
              if applied then
                Hashtbl.replace unknown q
                  (1 + Option.value ~default:0 (Hashtbl.find_opt unknown q))
            | External | Local -> ())
          | Summary.Field_call { field } ->
            let dst = Hashtbl.find field_index field in
            List.iter (fun h -> if h <> dst then add_edge h dst) holders
          | Summary.Raise { label } -> (
            match s.Summary.wired with
            | None -> ()
            | Some w ->
              let fid = Hashtbl.find field_index w in
              nodes.(fid).field_raises <-
                (label, s.Summary.s_loc, f.Summary.rel) :: nodes.(fid).field_raises))
        fn.Summary.sites)
    fn_triples;
  let in_deg = Array.make total 0 in
  Array.iter (fun node -> List.iter (fun d -> in_deg.(d) <- in_deg.(d) + 1) node.succ) nodes;
  let unknown = Hashtbl.fold (fun k v acc -> (k, v) :: acc) unknown [] |> List.sort compare in
  { nodes; in_deg; unknown }

let find_field t fname =
  let found = ref None in
  Array.iter (fun n -> if n.name = "field:" ^ fname then found := Some n.id) t.nodes;
  !found

let node_id t key =
  let found = ref None in
  Array.iter
    (fun n ->
      match (n.file, n.fn) with
      | Some f, Some fn when (f, fn.Summary.fn_name) = key -> found := Some n.id
      | _ -> ())
    t.nodes;
  !found

let to_json t =
  let module J = Repro_obs.Json in
  J.Obj
    [
      ("tool", J.Str "cbl-lint-callgraph");
      ( "nodes",
        J.List
          (Array.to_list
             (Array.map
                (fun n ->
                  J.Obj
                    ([ ("id", J.Int n.id); ("name", J.Str n.name) ]
                    @ (match n.file with None -> [] | Some f -> [ ("file", J.Str f) ])
                    @ [ ("in_degree", J.Int t.in_deg.(n.id)) ]))
                t.nodes)) );
      ( "edges",
        J.List
          (Array.to_list t.nodes
          |> List.concat_map (fun n ->
                 List.rev_map (fun d -> J.List [ J.Int n.id; J.Int d ]) n.succ)) );
      ("unknown_callees", J.Obj (List.map (fun (q, c) -> (q, J.Int c)) t.unknown));
    ]
