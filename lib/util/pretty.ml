let bytes ppf n =
  let f = float_of_int n in
  if n < 1024 then Format.fprintf ppf "%d B" n
  else if n < 1024 * 1024 then Format.fprintf ppf "%.1f KiB" (f /. 1024.)
  else if n < 1024 * 1024 * 1024 then Format.fprintf ppf "%.1f MiB" (f /. 1024. /. 1024.)
  else Format.fprintf ppf "%.2f GiB" (f /. 1024. /. 1024. /. 1024.)

let seconds ppf s =
  if s < 0.001 then Format.fprintf ppf "%.1f µs" (s *. 1e6)
  else if s < 1.0 then Format.fprintf ppf "%.2f ms" (s *. 1e3)
  else Format.fprintf ppf "%.3f s" s

let table ~header ~rows ppf () =
  let all = header :: rows in
  let cols = List.fold_left (fun acc r -> max acc (List.length r)) 0 all in
  let widths = Array.make cols 0 in
  List.iter
    (fun row -> List.iteri (fun i cell -> widths.(i) <- max widths.(i) (String.length cell)) row)
    all;
  let pad i cell = cell ^ String.make (widths.(i) - String.length cell) ' ' in
  let print_row row = Format.fprintf ppf "| %s |@." (String.concat " | " (List.mapi pad row)) in
  let rule () =
    let dashes = Array.to_list (Array.map (fun w -> String.make w '-') widths) in
    Format.fprintf ppf "|-%s-|@." (String.concat "-|-" dashes)
  in
  print_row header;
  rule ();
  List.iter print_row rows
