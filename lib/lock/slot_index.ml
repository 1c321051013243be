type t = { mutable rows : Bytes.t array }

let create () = { rows = [||] }

let check ~row ~slot =
  if row < 0 || slot < 0 then invalid_arg "Slot_index: negative row or slot"

(* The row's bytes, grown (doubling, zero-filled) to cover [slot]. *)
let row_for t ~row ~slot =
  if row >= Array.length t.rows then begin
    let rows = Array.make (max (row + 1) (2 * Array.length t.rows)) Bytes.empty in
    Array.blit t.rows 0 rows 0 (Array.length t.rows);
    t.rows <- rows
  end;
  let bits = t.rows.(row) in
  let need = (slot lsr 3) + 1 in
  if need <= Bytes.length bits then bits
  else begin
    let grown = Bytes.make (max need (max 8 (2 * Bytes.length bits))) '\000' in
    Bytes.blit bits 0 grown 0 (Bytes.length bits);
    t.rows.(row) <- grown;
    grown
  end

let add t ~row ~slot =
  check ~row ~slot;
  let bits = row_for t ~row ~slot in
  let i = slot lsr 3 in
  Bytes.set_uint8 bits i (Bytes.get_uint8 bits i lor (1 lsl (slot land 7)))

let mem t ~row ~slot =
  if row < 0 || slot < 0 || row >= Array.length t.rows then false
  else
    let bits = t.rows.(row) in
    let i = slot lsr 3 in
    i < Bytes.length bits && Bytes.get_uint8 bits i land (1 lsl (slot land 7)) <> 0

let remove t ~row ~slot =
  if mem t ~row ~slot then begin
    let bits = t.rows.(row) in
    let i = slot lsr 3 in
    Bytes.set_uint8 bits i (Bytes.get_uint8 bits i land lnot (1 lsl (slot land 7)))
  end

let fold_row t ~row f init =
  if row < 0 || row >= Array.length t.rows then init
  else begin
    let bits = t.rows.(row) in
    let acc = ref init in
    for i = 0 to Bytes.length bits - 1 do
      let byte = Bytes.get_uint8 bits i in
      if byte <> 0 then
        for b = 0 to 7 do
          if byte land (1 lsl b) <> 0 then acc := f ((i lsl 3) lor b) !acc
        done
    done;
    !acc
  end

let cardinal t =
  let n = ref 0 in
  Array.iter
    (Bytes.iter (fun ch ->
         let byte = ref (Char.code ch) in
         while !byte <> 0 do
           byte := !byte land (!byte - 1);
           incr n
         done))
    t.rows;
  !n

let clear t = Array.iter (fun bits -> Bytes.fill bits 0 (Bytes.length bits) '\000') t.rows
