open Repro_storage
module Codec = Repro_util.Codec

type update_op =
  | Physical of { off : int; before : string; after : string }
  | Delta of { off : int; delta : int64 }

let apply_op page = function
  | Physical { off; after; _ } -> Page.write page ~off after
  | Delta { off; delta } -> Page.add_cell page ~off delta

let invert = function
  | Physical { off; before; after } -> Physical { off; before = after; after = before }
  | Delta { off; delta } -> Delta { off; delta = Int64.neg delta }

let pp_op ppf = function
  | Physical { off; before; after } ->
    Format.fprintf ppf "phys@@%d %dB->%dB" off (String.length before) (String.length after)
  | Delta { off; delta } -> Format.fprintf ppf "delta@@%d %+Ld" off delta

type dpt_entry = { pid : Page_id.t; psn_first : int; curr_psn : int; redo_lsn : Lsn.t }
type active_txn = { txn : int; last_lsn : Lsn.t }

type body =
  | Update of { pid : Page_id.t; psn_before : int; op : update_op }
  | Clr of { pid : Page_id.t; psn_before : int; op : update_op; undo_next : Lsn.t }
  | Commit
  | Abort
  | Savepoint of string
  | Checkpoint_begin of { dpt : dpt_entry list; active : active_txn list }
  | Checkpoint_end

type t = { txn : int; prev : Lsn.t; body : body }

module Kind = struct
  type t = Update | Clr | Commit | Abort | Savepoint | Checkpoint_begin | Checkpoint_end
end

(* The tag byte [encode] writes for each kind. *)
let kind_of_tag : int -> Kind.t = function
  | 1 -> Update
  | 2 -> Clr
  | 3 -> Commit
  | 4 -> Abort
  | 5 -> Savepoint
  | 6 -> Checkpoint_begin
  | 7 -> Checkpoint_end
  | n -> raise (Codec.Corrupt (Printf.sprintf "bad record tag %d" n))

let system_txn = -1

let page_of t =
  match t.body with
  | Update { pid; _ } | Clr { pid; _ } -> Some pid
  | Commit | Abort | Savepoint _ | Checkpoint_begin _ | Checkpoint_end -> None

let psn_before_of t =
  match t.body with
  | Update { psn_before; _ } | Clr { psn_before; _ } -> Some psn_before
  | Commit | Abort | Savepoint _ | Checkpoint_begin _ | Checkpoint_end -> None

let pp ppf t =
  let body ppf = function
    | Update { pid; psn_before; op } ->
      Format.fprintf ppf "update %a psn<%d %a" Page_id.pp pid psn_before pp_op op
    | Clr { pid; psn_before; op; undo_next } ->
      Format.fprintf ppf "clr %a psn<%d %a undo_next=%a" Page_id.pp pid psn_before pp_op op
        Lsn.pp undo_next
    | Commit -> Format.pp_print_string ppf "commit"
    | Abort -> Format.pp_print_string ppf "abort"
    | Savepoint name -> Format.fprintf ppf "savepoint %s" name
    | Checkpoint_begin { dpt; active } ->
      Format.fprintf ppf "ckpt_begin dpt=%d active=%d" (List.length dpt) (List.length active)
    | Checkpoint_end -> Format.pp_print_string ppf "ckpt_end"
  in
  Format.fprintf ppf "[txn=%d prev=%a %a]" t.txn Lsn.pp t.prev body t.body

(* Wire format: tag byte per variant; see .mli for semantics. *)

let encode_op e = function
  | Physical { off; before; after } ->
    Codec.u8 e 0;
    Codec.u32 e off;
    Codec.bytes e before;
    Codec.bytes e after
  | Delta { off; delta } ->
    Codec.u8 e 1;
    Codec.u32 e off;
    Codec.i64 e delta

let decode_op d =
  match Codec.read_u8 d with
  | 0 ->
    let off = Codec.read_u32 d in
    let before = Codec.read_bytes d in
    let after = Codec.read_bytes d in
    Physical { off; before; after }
  | 1 ->
    let off = Codec.read_u32 d in
    let delta = Codec.read_i64 d in
    Delta { off; delta }
  | n -> raise (Codec.Corrupt (Printf.sprintf "bad update_op tag %d" n))

let skip_op d =
  match Codec.read_u8 d with
  | 0 ->
    Codec.skip d 4;
    Codec.skip_bytes d;
    Codec.skip_bytes d
  | 1 -> Codec.skip d 12
  | n -> raise (Codec.Corrupt (Printf.sprintf "bad update_op tag %d" n))

let encode_dpt_entry e (en : dpt_entry) =
  Page_id.encode e en.pid;
  Codec.int_as_i64 e en.psn_first;
  Codec.int_as_i64 e en.curr_psn;
  Lsn.encode e en.redo_lsn

let decode_dpt_entry d =
  let pid = Page_id.decode d in
  let psn_first = Codec.read_int_as_i64 d in
  let curr_psn = Codec.read_int_as_i64 d in
  let redo_lsn = Lsn.decode d in
  { pid; psn_first; curr_psn; redo_lsn }

let encode_active e (a : active_txn) =
  Codec.int_as_i64 e a.txn;
  Lsn.encode e a.last_lsn

let decode_active d =
  let txn = Codec.read_int_as_i64 d in
  let last_lsn = Lsn.decode d in
  { txn; last_lsn }

let encode e t =
  Codec.int_as_i64 e t.txn;
  Lsn.encode e t.prev;
  match t.body with
  | Update { pid; psn_before; op } ->
    Codec.u8 e 1;
    Page_id.encode e pid;
    Codec.int_as_i64 e psn_before;
    encode_op e op
  | Clr { pid; psn_before; op; undo_next } ->
    Codec.u8 e 2;
    Page_id.encode e pid;
    Codec.int_as_i64 e psn_before;
    encode_op e op;
    Lsn.encode e undo_next
  | Commit -> Codec.u8 e 3
  | Abort -> Codec.u8 e 4
  | Savepoint name ->
    Codec.u8 e 5;
    Codec.bytes e name
  | Checkpoint_begin { dpt; active } ->
    Codec.u8 e 6;
    Codec.list encode_dpt_entry e dpt;
    Codec.list encode_active e active
  | Checkpoint_end -> Codec.u8 e 7

let size t = Codec.measure (fun e -> encode e t)

let decode d =
  let txn = Codec.read_int_as_i64 d in
  let prev = Lsn.decode d in
  let body =
    match kind_of_tag (Codec.read_u8 d) with
    | Update ->
      let pid = Page_id.decode d in
      let psn_before = Codec.read_int_as_i64 d in
      let op = decode_op d in
      Update { pid; psn_before; op }
    | Clr ->
      let pid = Page_id.decode d in
      let psn_before = Codec.read_int_as_i64 d in
      let op = decode_op d in
      let undo_next = Lsn.decode d in
      Clr { pid; psn_before; op; undo_next }
    | Commit -> Commit
    | Abort -> Abort
    | Savepoint -> Savepoint (Codec.read_bytes d)
    | Checkpoint_begin ->
      let dpt = Codec.read_list decode_dpt_entry d in
      let active = Codec.read_list decode_active d in
      Checkpoint_begin { dpt; active }
    | Checkpoint_end -> Checkpoint_end
  in
  { txn; prev; body }

(* [decode] with every read turned into a skip: page id 8 bytes, PSN,
   txn and LSN 8 each, a delta op's offset and delta 12, a DPT entry 32,
   an active-transaction entry 16. *)
let skip_dpt_entry d = Codec.skip d 32
let skip_active d = Codec.skip d 16

let skip d =
  Codec.skip d 16;
  match kind_of_tag (Codec.read_u8 d) with
  | Update ->
    Codec.skip d 16;
    skip_op d
  | Clr ->
    Codec.skip d 16;
    skip_op d;
    Codec.skip d 8
  | Commit | Abort | Checkpoint_end -> ()
  | Savepoint -> Codec.skip_bytes d
  | Checkpoint_begin ->
    Codec.skip_list skip_dpt_entry d;
    Codec.skip_list skip_active d

let txn_offset = 0
let tag_offset = 16
let owner_offset = 17
let slot_offset = 21
let psn_before_offset = 25
let op_offset = 33
