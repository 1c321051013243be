type t = int

let nil = -1
let is_nil t = t < 0
let compare = Int.compare
let min = Stdlib.min
let max = Stdlib.max
let pp ppf t = if is_nil t then Format.pp_print_string ppf "nil" else Format.fprintf ppf "lsn:%d" t
let encode e t = Repro_util.Codec.int_as_i64 e t
let decode d = Repro_util.Codec.read_int_as_i64 d
