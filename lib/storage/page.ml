(* [shared] marks a buffer another image may also point at: the first
   byte write to a shared image copies the buffer before writing. *)
type t = { id : Page_id.t; mutable psn : int; mutable data : Bytes.t; mutable shared : bool }

let create ~id ~psn ~size = { id; psn; data = Bytes.make size '\000'; shared = false }
let id t = t.id
let psn t = t.psn
let size t = Bytes.length t.data
let bump_psn t = t.psn <- t.psn + 1
let set_psn t v = t.psn <- v

let copy t =
  t.shared <- true;
  { t with shared = true }

(* Called by every byte mutator before it writes. *)
let unshare t =
  if t.shared then begin
    t.data <- Bytes.copy t.data;
    t.shared <- false
  end

let check t ~off ~len =
  if off < 0 || len < 0 || off + len > Bytes.length t.data then
    invalid_arg
      (Format.asprintf "Page access out of bounds: %a off=%d len=%d size=%d" Page_id.pp t.id off
         len (Bytes.length t.data))

let read t ~off ~len =
  check t ~off ~len;
  Bytes.sub_string t.data off len

let write t ~off s =
  check t ~off ~len:(String.length s);
  unshare t;
  Bytes.blit_string s 0 t.data off (String.length s)

let assign dst ~from =
  if not (Page_id.equal dst.id from.id && size dst = size from) then
    invalid_arg
      (Format.asprintf "Page.assign: %a (size %d) from %a (size %d)" Page_id.pp dst.id (size dst)
         Page_id.pp from.id (size from));
  if dst.data != from.data then begin
    from.shared <- true;
    dst.data <- from.data;
    dst.shared <- true
  end

let get_cell t ~off =
  check t ~off ~len:8;
  Bytes.get_int64_le t.data off

let set_cell t ~off v =
  check t ~off ~len:8;
  unshare t;
  Bytes.set_int64_le t.data off v

let add_cell t ~off d = set_cell t ~off (Int64.add (get_cell t ~off) d)

let equal_contents a b = Page_id.equal a.id b.id && a.psn = b.psn && Bytes.equal a.data b.data

let encode e t =
  Page_id.encode e t.id;
  Repro_util.Codec.int_as_i64 e t.psn;
  Repro_util.Codec.bytes e (Bytes.to_string t.data)

let decode d =
  let id = Page_id.decode d in
  let psn = Repro_util.Codec.read_int_as_i64 d in
  let data = Bytes.of_string (Repro_util.Codec.read_bytes d) in
  { id; psn; data; shared = false }
