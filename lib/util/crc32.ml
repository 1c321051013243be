(* Slicing-by-8 (Kounavis & Berry): row [k] of [table] holds the CRC of
   a byte followed by [k] zero bytes, so one pass of the main loop folds
   eight input bytes with eight independent lookups.  Row 0 is the
   classic byte-at-a-time table, which also finishes the last [len mod 8]
   bytes.  The CRC lives in a native [int], masked to 32 bits. *)
let table =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for n = 0 to 255 do
    for k = 1 to 7 do
      let c = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- t.(c land 0xFF) lxor (c lsr 8)
    done
  done;
  t

let u32 s i = Int32.to_int (String.get_int32_le s i) land 0xFFFF_FFFF

let update_sub crc s ~pos ~len =
  if pos < 0 || len < 0 || pos > String.length s - len then invalid_arg "Crc32.update";
  let c = ref (crc land 0xFFFF_FFFF lxor 0xFFFF_FFFF) in
  let i = ref pos in
  let stop = pos + len in
  while !i + 8 <= stop do
    let lo = u32 s !i lxor !c in
    let hi = u32 s (!i + 4) in
    c :=
      table.(0x700 + (lo land 0xFF))
      lxor table.(0x600 + ((lo lsr 8) land 0xFF))
      lxor table.(0x500 + ((lo lsr 16) land 0xFF))
      lxor table.(0x400 + (lo lsr 24))
      lxor table.(0x300 + (hi land 0xFF))
      lxor table.(0x200 + ((hi lsr 8) land 0xFF))
      lxor table.(0x100 + ((hi lsr 16) land 0xFF))
      lxor table.(hi lsr 24);
    i := !i + 8
  done;
  while !i < stop do
    c := table.((!c lxor Char.code (String.get s !i)) land 0xFF) lxor (!c lsr 8);
    incr i
  done;
  !c lxor 0xFFFF_FFFF

let update crc b ~pos ~len = update_sub crc (Bytes.unsafe_to_string b) ~pos ~len
let bytes b ~pos ~len = update 0 b ~pos ~len
let sub s ~pos ~len = update_sub 0 s ~pos ~len
let string s = sub s ~pos:0 ~len:(String.length s)
