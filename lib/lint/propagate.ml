(* Phase 2: propagate exception-flow facts to a fixpoint over the call
   graph.  Everything here is a monotone join over finite sets, so the
   fixpoint exists, is unique, and is independent of visit order (the
   qcheck property in test_lint.ml exercises exactly that by permuting
   [order]).

   The fact per node is [escaping]: the retryable raise sites that can
   escape it — its own unhandled raises plus callees' escaping raises
   not covered by this node's handler labels. *)

type config = {
  raise_impl : string list;  (** the Block module itself *)
  checked : string -> bool;  (** which files' sites are police-able (lib/) *)
}

type raise_site = {
  r_label : Summary.exn_label;
  r_file : string;
  r_loc : Summary.loc;
  r_fn : string;  (** display name of the function that raises *)
}

module RS = Set.Make (struct
  type t = raise_site

  let compare = compare
end)

type t = {
  graph : Callgraph.t;
  escaping : RS.t array;
  handled : (string * int * int * Summary.exn_label, unit) Hashtbl.t;
      (** raise-site keys some caller's handler covers *)
  raise_sites : raise_site list;  (** all police-able raise sites *)
}

let raise_key (r : raise_site) = (r.r_file, r.r_loc.Summary.line, r.r_loc.Summary.col, r.r_label)

(* The police-able raise sites of one node.  A synthetic field node
   holds the raises wired into it; a function's wired raises still count
   as its own too. *)
let direct config (g : Callgraph.t) id =
  let n = g.Callgraph.nodes.(id) in
  match n.Callgraph.fn with
  | None ->
    List.map
      (fun (label, loc, file) ->
        { r_label = label; r_file = file; r_loc = loc; r_fn = n.Callgraph.name })
      n.Callgraph.field_raises
  | Some fn ->
    let file = Option.value ~default:"" n.Callgraph.file in
    if config.checked file && not (List.mem file config.raise_impl) then
      List.filter_map
        (fun (s : Summary.site) ->
          match s.Summary.kind with
          | Summary.Raise { label } ->
            Some
              { r_label = label; r_file = file; r_loc = s.Summary.s_loc; r_fn = fn.Summary.fn_name }
          | Summary.Call _ | Summary.Field_call _ -> None)
        fn.Summary.sites
    else []

let run ?order config (g : Callgraph.t) =
  let n = Array.length g.Callgraph.nodes in
  let order = match order with Some o -> o | None -> Array.init n (fun i -> i) in
  let dir = Array.init n (fun i -> direct config g i) in
  let handled_of i =
    match g.Callgraph.nodes.(i).Callgraph.fn with
    | Some fn -> fn.Summary.handled
    | None -> []
  in
  let escaping =
    Array.init n (fun i ->
        RS.of_list
          (List.filter (fun r -> not (Summary.covers ~handled:(handled_of i) r.r_label)) dir.(i)))
  in
  (* Escaping sets to a fixpoint: the flow is monotone, so sweeping
     until nothing changes terminates and the result is
     order-independent. *)
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun i ->
        let handled = handled_of i in
        List.iter
          (fun s ->
            let flow =
              RS.filter (fun r -> not (Summary.covers ~handled r.r_label)) escaping.(s)
            in
            if not (RS.subset flow escaping.(i)) then begin
              escaping.(i) <- RS.union flow escaping.(i);
              changed := true
            end)
          g.Callgraph.nodes.(i).Callgraph.succ)
      order
  done;
  (* A raise site is existentially handled if its own function's
     handlers cover it, or if it escapes to some caller whose handlers
     do.  Whatever no context ever covers is an exn-flow violation. *)
  let handled : (string * int * int * Summary.exn_label, unit) Hashtbl.t = Hashtbl.create 64 in
  Array.iteri
    (fun i raises ->
      let h = handled_of i in
      List.iter
        (fun r -> if Summary.covers ~handled:h r.r_label then Hashtbl.replace handled (raise_key r) ())
        raises)
    dir;
  Array.iter
    (fun i ->
      let h = handled_of i in
      if h <> [] then
        List.iter
          (fun s ->
            RS.iter
              (fun r ->
                if Summary.covers ~handled:h r.r_label then Hashtbl.replace handled (raise_key r) ())
              escaping.(s))
          g.Callgraph.nodes.(i).Callgraph.succ)
      order;
  { graph = g; escaping; handled; raise_sites = List.concat (Array.to_list dir) }

let is_handled t r = Hashtbl.mem t.handled (raise_key r)

let unhandled_raises t = List.filter (fun r -> not (is_handled t r)) t.raise_sites

(* Dead-handler verdict: can anything the guarded body reaches feed the
   handler a matching exception?  Conservative on anything unresolved
   that could be repo code (locals, closures, repo modules without the
   binding, record fields) — only provably-unfeedable handlers with
   fully resolved bodies are flagged. *)
let handler_live t (files : Summary.file list) ~rel (h : Summary.handler) =
  let module_index, binding_exists = Callgraph.indexes files in
  let file = List.find_opt (fun f -> f.Summary.rel = rel) files in
  match file with
  | None -> true
  | Some f ->
    let covers_any labels = List.exists (fun l -> Summary.covers ~handled:h.Summary.h_labels l) labels in
    h.Summary.h_unknown
    || covers_any h.Summary.h_raises
    || List.exists
         (fun fname ->
           match Callgraph.find_field t.graph fname with
           | None -> true (* a field we never saw wired: unknown *)
           | Some id ->
             covers_any (List.map (fun r -> r.r_label) (RS.elements t.escaping.(id))))
         h.Summary.h_fields
    || List.exists
         (fun path ->
           match Callgraph.resolve ~module_index ~binding_exists f path with
           | Callgraph.Fn_key key -> (
             match Callgraph.node_id t.graph key with
             | None -> true
             | Some id ->
               covers_any (List.map (fun r -> r.r_label) (RS.elements t.escaping.(id))))
           | Callgraph.Unknown _ -> true
           | Callgraph.External -> false (* external code cannot raise Would_block *)
           | Callgraph.Local -> (
             (* unqualified and not a top-level binding: a local fn,
                parameter or closure we cannot see through — unless it
                is a bare lowercase value name, treat as unknown.  Being
                unable to distinguish, stay conservative. *)
             match path with
             | [ name ] when String.length name > 0 && name.[0] >= 'A' && name.[0] <= 'Z' ->
               false (* a module path alone (e.g. a functor arg): no call *)
             | _ -> true))
         h.Summary.h_calls
