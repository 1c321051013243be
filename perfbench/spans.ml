module Block = Repro_cbl.Block

external now_ns : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
[@@noalloc]

let now () = Int64.to_float (now_ns ()) *. 1e-9

type op =
  | Begin
  | Read
  | Update
  | Update_bytes
  | Savepoint
  | Rollback_to
  | Commit
  | Outcome
  | Pump
  | Abort
  | Checkpoint
  | Crash
  | Recover
  | Is_up

type layer = Setup_cluster | Setup_scripts | Driver_run | Driver_verify | Op of op

let ops =
  [
    Begin; Read; Update; Update_bytes; Savepoint; Rollback_to; Commit; Outcome; Pump; Abort;
    Checkpoint; Crash; Recover; Is_up;
  ]

let layers =
  [ Setup_cluster; Setup_scripts; Driver_run; Driver_verify ] @ List.map (fun o -> Op o) ops

let op_name = function
  | Begin -> "begin"
  | Read -> "read"
  | Update -> "update"
  | Update_bytes -> "update_bytes"
  | Savepoint -> "savepoint"
  | Rollback_to -> "rollback_to"
  | Commit -> "commit"
  | Outcome -> "outcome"
  | Pump -> "pump"
  | Abort -> "abort"
  | Checkpoint -> "checkpoint"
  | Crash -> "crash"
  | Recover -> "recover"
  | Is_up -> "is_up"

let layer_name = function
  | Setup_cluster -> "setup.cluster"
  | Setup_scripts -> "setup.scripts"
  | Driver_run -> "driver.run"
  | Driver_verify -> "driver.verify"
  | Op o -> "cluster." ^ op_name o

(* Position in [layers]; write_tsv and the columns depend on it. *)
let layer_index = function
  | Setup_cluster -> 0
  | Setup_scripts -> 1
  | Driver_run -> 2
  | Driver_verify -> 3
  | Op Begin -> 4
  | Op Read -> 5
  | Op Update -> 6
  | Op Update_bytes -> 7
  | Op Savepoint -> 8
  | Op Rollback_to -> 9
  | Op Commit -> 10
  | Op Outcome -> 11
  | Op Pump -> 12
  | Op Abort -> 13
  | Op Checkpoint -> 14
  | Op Crash -> 15
  | Op Recover -> 16
  | Op Is_up -> 17

let reason_names =
  [
    "lock_conflict"; "node_down"; "log_space"; "page_recovering"; "page_unavailable";
    "net_unreachable";
  ]

let reason_index = function
  | Block.Lock_conflict _ -> 0
  | Block.Node_down _ -> 1
  | Block.Log_space _ -> 2
  | Block.Page_recovering _ -> 3
  | Block.Page_unavailable _ -> 4
  | Block.Net_unreachable _ -> 5

(* Outcome codes: [ok], [exn], or a block reason index (>= 0). *)
let ok = -1
let exn = -2

(* Flat, growable columns, one row per span. *)
type t = {
  mutable n : int;
  mutable layer : int array;
  mutable parent : int array;
  mutable outcome : int array;
  mutable start : Float.Array.t;
  mutable stop : Float.Array.t;
  mutable words : Float.Array.t;
  mutable open_span : int;  (* innermost open span, -1 at top level *)
}

let initial = 1024

let create () =
  {
    n = 0;
    layer = Array.make initial 0;
    parent = Array.make initial 0;
    outcome = Array.make initial 0;
    start = Float.Array.make initial 0.;
    stop = Float.Array.make initial 0.;
    words = Float.Array.make initial 0.;
    open_span = -1;
  }

let clear t =
  t.n <- 0;
  t.open_span <- -1

let grow t =
  let cap = 2 * Array.length t.layer in
  let ints a =
    let b = Array.make cap 0 in
    Array.blit a 0 b 0 t.n;
    b
  in
  let floats a =
    let b = Float.Array.make cap 0. in
    Float.Array.blit a 0 b 0 t.n;
    b
  in
  t.layer <- ints t.layer;
  t.parent <- ints t.parent;
  t.outcome <- ints t.outcome;
  t.start <- floats t.start;
  t.stop <- floats t.stop;
  t.words <- floats t.words

(* The clock is read outside the minor-words readings, so a span's word
   count is exactly what the call inside it allocated. *)
let enter t layer =
  if t.n = Array.length t.layer then grow t;
  let id = t.n in
  t.n <- id + 1;
  t.layer.(id) <- layer_index layer;
  t.parent.(id) <- t.open_span;
  t.open_span <- id;
  Float.Array.set t.start id (now ());
  Float.Array.set t.words id (Gc.minor_words ());
  id

let leave t id outcome =
  let w = Gc.minor_words () in
  Float.Array.set t.stop id (now ());
  Float.Array.set t.words id (w -. Float.Array.get t.words id);
  t.outcome.(id) <- outcome;
  t.open_span <- t.parent.(id)

let span t layer f =
  let id = enter t layer in
  match f () with
  | v ->
    leave t id ok;
    v
  | exception (Block.Would_block reason as e) ->
    leave t id (reason_index reason);
    raise e
  | exception e ->
    leave t id exn;
    raise e

type stats = {
  calls : int;
  blocked : int;
  by_reason : int array;
  total_s : float;
  self_s : float;
  minor_words : float;
  durations : float array;
}

let duration t i = Float.Array.get t.stop i -. Float.Array.get t.start i

let summarize t layer =
  let li = layer_index layer in
  (* time covered by each span's direct children *)
  let covered = Float.Array.make (max 1 t.n) 0. in
  for i = 0 to t.n - 1 do
    let p = t.parent.(i) in
    if p >= 0 then Float.Array.set covered p (Float.Array.get covered p +. duration t i)
  done;
  let calls = ref 0 and blocked = ref 0 and total = ref 0. and self = ref 0. in
  let words = ref 0. in
  let by_reason = Array.make (List.length reason_names) 0 in
  let durations = ref [] in
  for i = 0 to t.n - 1 do
    if t.layer.(i) = li then begin
      let d = duration t i in
      incr calls;
      total := !total +. d;
      self := !self +. (d -. Float.Array.get covered i);
      words := !words +. Float.Array.get t.words i;
      durations := d :: !durations;
      let o = t.outcome.(i) in
      if o >= 0 then begin
        incr blocked;
        by_reason.(o) <- by_reason.(o) + 1
      end
    end
  done;
  let durations = Array.of_list !durations in
  Array.sort Float.compare durations;
  {
    calls = !calls;
    blocked = !blocked;
    by_reason;
    total_s = !total;
    self_s = !self;
    minor_words = !words;
    durations;
  }

let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.
  else
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

let write_tsv t path =
  let names = Array.of_list (List.map layer_name layers) in
  let reasons = Array.of_list reason_names in
  let origin = if t.n = 0 then 0. else Float.Array.get t.start 0 in
  let us x = (x -. origin) *. 1e6 in
  let oc = open_out path in
  output_string oc "id\tparent\tlayer\tstart_us\tstop_us\tminor_words\toutcome\n";
  for i = 0 to t.n - 1 do
    let o = t.outcome.(i) in
    Printf.fprintf oc "%d\t%d\t%s\t%.3f\t%.3f\t%.0f\t%s\n" i t.parent.(i) names.(t.layer.(i))
      (us (Float.Array.get t.start i))
      (us (Float.Array.get t.stop i))
      (Float.Array.get t.words i)
      (if o = ok then "ok" else if o = exn then "exn" else reasons.(o))
  done;
  close_out oc
