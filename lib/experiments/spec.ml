type ('p, 'r) claim = {
  name : string;
  holds : 'r list -> bool;
  note : ('r list -> string) option;
  smoke : ('r list -> string) option;
  each : ('p -> string) option;
}

let silent name holds = { name; holds; note = None; smoke = None; each = None }

let shown ?note ?smoke ?each name holds =
  { name; holds; note = Some (Option.value note ~default:(fun _ -> name)); smoke; each }

type ('p, 'r) spec = {
  id : string;
  title : string;
  claim : string;
  quick : 'p list;
  full : 'p list;
  run : quick:bool -> 'p -> 'r list;
  columns : (string * ('r -> string)) list;
  claims : ('p, 'r) claim list;
  notes : 'r list -> string list;
  data : ('p * 'r list) list -> (string * Repro_obs.Json.t) list;
}

type t = Spec : ('p, 'r) spec -> t

let make ~id ~title ~claim ~quick ~full ~run ~columns ?(claims = []) ?(notes = fun _ -> [])
    ?(data = fun _ -> []) () =
  Spec { id; title; claim; quick; full; run; columns; claims; notes; data }

let id (Spec s) = s.id

type verdict = { experiment : string; claim : string; pass : bool; judged : bool }

let word pass = if pass then "PASS" else "FAIL"

let run ?(quick = false) (Spec s) =
  let runs = List.map (fun p -> (p, s.run ~quick p)) (if quick then s.quick else s.full) in
  let rows = List.concat_map snd runs in
  let judge c (subject, rows) =
    let pass = c.holds rows in
    let judged = not (quick && Option.is_some c.smoke) in
    let note =
      match c.smoke with
      | Some smoke when quick -> Some (smoke rows)
      | _ ->
        let subject = Option.fold ~none:"" ~some:(( ^ ) " ") subject in
        Option.map (fun note -> Printf.sprintf "%s%s: %s" (word pass) subject (note rows)) c.note
    in
    let claim = Option.fold ~none:c.name ~some:(Printf.sprintf "%s (%s)" c.name) subject in
    ({ experiment = s.id; claim; pass; judged }, note)
  in
  let judged =
    List.concat_map
      (fun c ->
        match c.each with
        | None -> [ judge c (None, rows) ]
        | Some subject -> List.map (fun (p, rows) -> judge c (Some (subject p), rows)) runs)
      s.claims
  in
  ( {
      Report.id = s.id;
      title = s.title;
      claim = s.claim;
      header = List.map fst s.columns;
      rows = List.map (fun r -> List.map (fun (_, f) -> f r) s.columns) rows;
      notes = List.filter_map snd judged @ s.notes rows;
      data = s.data runs;
    },
    List.map fst judged )

let failed = List.filter (fun v -> v.judged && not v.pass)
