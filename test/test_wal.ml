(* Tests for LSNs, log records and the log manager. *)

module Lsn = Repro_wal.Lsn
module Record = Repro_wal.Record
module Log_manager = Repro_wal.Log_manager
module Group_commit = Repro_wal.Group_commit
module Log_device = Repro_storage.Log_device
module Page = Repro_storage.Page
module Page_id = Repro_storage.Page_id
module Codec = Repro_util.Codec
module Env = Repro_sim.Env
module Metrics = Repro_sim.Metrics
module Config = Repro_sim.Config

let qcheck = QCheck_alcotest.to_alcotest
let pid slot = Page_id.make ~owner:0 ~slot

(* ---- Lsn ---- *)

let test_lsn_nil () =
  Alcotest.(check bool) "nil is nil" true (Lsn.is_nil Lsn.nil);
  Alcotest.(check bool) "0 is not nil" false (Lsn.is_nil 0);
  Alcotest.(check bool) "nil below all" true (Lsn.compare Lsn.nil 0 < 0);
  Alcotest.(check int) "min" Lsn.nil (Lsn.min Lsn.nil 5);
  Alcotest.(check int) "max" 5 (Lsn.max Lsn.nil 5)

(* ---- Record ---- *)

let sample_records =
  [
    { Record.txn = 1; prev = Lsn.nil; body = Commit };
    { Record.txn = 2; prev = 10; body = Abort };
    { Record.txn = 3; prev = 20; body = Savepoint "sp-1" };
    {
      Record.txn = 4;
      prev = 30;
      body = Update { pid = pid 7; psn_before = 5; op = Delta { off = 16; delta = -9L } };
    };
    {
      Record.txn = 5;
      prev = 40;
      body =
        Update
          { pid = pid 8; psn_before = 0; op = Physical { off = 2; before = "ab"; after = "xy" } };
    };
    {
      Record.txn = 6;
      prev = 50;
      body =
        Clr
          {
            pid = pid 9;
            psn_before = 3;
            op = Delta { off = 0; delta = 4L };
            undo_next = 12;
          };
    };
    {
      Record.txn = Record.system_txn;
      prev = Lsn.nil;
      body =
        Checkpoint_begin
          {
            dpt = [ { Record.pid = pid 1; psn_first = 2; curr_psn = 6; redo_lsn = 99 } ];
            active = [ { Record.txn = 7; last_lsn = 123 } ];
          };
    };
    { Record.txn = Record.system_txn; prev = 60; body = Checkpoint_end };
  ]

let roundtrip r =
  Record.decode (Codec.decoder (Bytes.to_string (Codec.with_scratch (fun e -> Record.encode e r))))

let test_record_roundtrips () =
  List.iter
    (fun r ->
      let r' = roundtrip r in
      Alcotest.(check string) "roundtrip"
        (Format.asprintf "%a" Record.pp r)
        (Format.asprintf "%a" Record.pp r'))
    sample_records

let test_record_accessors () =
  let upd = List.nth sample_records 3 in
  Alcotest.(check bool) "page_of" true (Record.page_of upd = Some (pid 7));
  Alcotest.(check (option int)) "psn_before_of" (Some 5) (Record.psn_before_of upd);
  Alcotest.(check bool) "commit has no page" true (Record.page_of (List.hd sample_records) = None)

let test_op_apply_and_invert () =
  let page = Page.create ~id:(pid 0) ~psn:0 ~size:64 in
  Page.set_cell page ~off:8 100L;
  let op = Record.Delta { off = 8; delta = 23L } in
  Record.apply_op page op;
  Alcotest.(check int64) "applied" 123L (Page.get_cell page ~off:8);
  Record.apply_op page (Record.invert op);
  Alcotest.(check int64) "inverted" 100L (Page.get_cell page ~off:8);
  let phys = Record.Physical { off = 0; before = "\x00\x00"; after = "hi" } in
  Record.apply_op page phys;
  Alcotest.(check string) "physical" "hi" (Page.read page ~off:0 ~len:2);
  Record.apply_op page (Record.invert phys);
  Alcotest.(check string) "physical undone" "\x00\x00" (Page.read page ~off:0 ~len:2)

let test_record_decode_garbage () =
  Alcotest.(check bool) "garbage rejected" true
    (try
       ignore (Record.decode (Codec.decoder "\xff\xff\xff"));
       false
     with Codec.Corrupt _ -> true)

let gen_op =
  QCheck.Gen.(
    oneof
      [
        map2 (fun off d -> Record.Delta { off; delta = Int64.of_int d }) (int_bound 56) int;
        map3
          (fun off b a -> Record.Physical { off; before = b; after = a })
          (int_bound 32) (string_size (return 4)) (string_size (return 4));
      ])

let gen_record =
  QCheck.Gen.(
    map3
      (fun txn prev op ->
        { Record.txn; prev; body = Update { pid = pid (txn mod 8); psn_before = prev + 1; op } })
      (int_bound 1000) (int_bound 10_000) gen_op)

let prop_record_roundtrip =
  QCheck.Test.make ~name:"record: random update roundtrip" ~count:300
    (QCheck.make gen_record) (fun r ->
      Format.asprintf "%a" Record.pp (roundtrip r)
      = Format.asprintf "%a" Record.pp r)

(* ---- Log_manager ---- *)

let mk ?capacity () =
  let env = Env.create Config.instant in
  Log_manager.create env (Metrics.create ()) ?capacity ()

let commit_record txn prev = { Record.txn; prev; body = Record.Commit }

let test_log_manager_append_read () =
  let log = mk () in
  let l1 = Log_manager.append log (commit_record 1 Lsn.nil) in
  let l2 = Log_manager.append log (commit_record 2 l1) in
  Alcotest.(check int) "first at 0" 0 l1;
  Alcotest.(check bool) "ordered" true (l2 > l1);
  let r = Log_manager.read log l2 in
  Alcotest.(check int) "txn" 2 r.Record.txn;
  Alcotest.(check int) "prev chain" l1 r.Record.prev;
  Alcotest.(check int) "next_lsn" l2 (Log_manager.next_lsn log l1)

let test_log_manager_fold_and_upto () =
  let log = mk () in
  let lsns = List.map (fun i -> Log_manager.append log (commit_record i Lsn.nil)) [ 1; 2; 3; 4 ] in
  let all = Log_manager.fold log ~from:Lsn.nil ~init:[] (fun acc _ r -> r.Record.txn :: acc) in
  Alcotest.(check (list int)) "all scanned" [ 4; 3; 2; 1 ] all;
  let upto = List.nth lsns 2 in
  let some = Log_manager.fold log ~upto ~from:Lsn.nil ~init:[] (fun acc _ r -> r.Record.txn :: acc) in
  Alcotest.(check (list int)) "upto exclusive" [ 2; 1 ] some

let test_log_manager_force_and_crash () =
  let log = mk () in
  let l1 = Log_manager.append log (commit_record 1 Lsn.nil) in
  Log_manager.force log ~upto:l1;
  let _l2 = Log_manager.append log (commit_record 2 l1) in
  Log_manager.crash log;
  let survivors =
    Log_manager.fold log ~from:Lsn.nil ~init:[] (fun acc _ r -> r.Record.txn :: acc)
  in
  Alcotest.(check (list int)) "only forced survives" [ 1 ] survivors

let test_log_manager_force_counts_once () =
  let env = Env.create Config.instant in
  let m = Metrics.create () in
  let log = Log_manager.create env m () in
  let l1 = Log_manager.append log (commit_record 1 Lsn.nil) in
  Log_manager.force log ~upto:l1;
  Log_manager.force log ~upto:l1;
  Alcotest.(check int) "idempotent force charges once" 1 m.Metrics.log_forces

(* A force made outside the batch — WAL before a page ship, say — still
   completes every pending commit it made durable: the batch's sweep is
   the log's after-force hook, not a call each force site must add. *)
let test_bare_force_completes_pending_commits () =
  let env = Env.create (Config.with_group_commit Config.instant ~window_ms:10. ~max_batch:8) in
  let log = Log_manager.create env (Metrics.create ()) () in
  let gc = Group_commit.create env ~node:0 log in
  let durable = ref [] in
  Group_commit.set_hooks gc ~before_force:ignore
    ~on_durable:(fun ~txn ~submitted_at:_ -> durable := txn :: !durable)
    ();
  let l1 = Log_manager.append log (commit_record 1 Lsn.nil) in
  Group_commit.submit gc ~txn:1 ~lsn:l1;
  let l2 = Log_manager.append log (commit_record 2 l1) in
  Group_commit.submit gc ~txn:2 ~lsn:l2;
  Alcotest.(check int) "both pending" 2 (Group_commit.pending_count gc);
  Log_manager.force log ~upto:l1;
  Alcotest.(check (list int)) "completed in submission order" [ 1; 2 ] (List.rev !durable);
  Alcotest.(check int) "batch empty" 0 (Group_commit.pending_count gc);
  Alcotest.(check bool) "no deadline left" true (Group_commit.deadline gc = None)

let test_log_manager_capacity () =
  let log = mk ~capacity:64 () in
  let l1 = Log_manager.append log (commit_record 1 Lsn.nil) in
  Alcotest.(check bool) "fills" true
    (try
       for i = 2 to 100 do
         ignore (Log_manager.append log (commit_record i Lsn.nil))
       done;
       false
     with Log_manager.Log_full -> true);
  (* overdraft always fits *)
  ignore (Log_manager.append ~overdraft:true log (commit_record 99 Lsn.nil));
  (* truncation frees space *)
  Log_manager.force_all log;
  Log_manager.truncate_to log (Log_manager.next_lsn log l1);
  Alcotest.(check bool) "freed" true (Option.get (Log_manager.available_bytes log) > 0)

let test_log_manager_scan_counts () =
  let env = Env.create Config.instant in
  let m = Metrics.create () in
  let log = Log_manager.create env m () in
  for i = 1 to 5 do
    ignore (Log_manager.append log (commit_record i Lsn.nil))
  done;
  ignore (Log_manager.fold log ~from:Lsn.nil ~init:() (fun () _ _ -> ()));
  Alcotest.(check int) "scan charged per record" 5 m.Metrics.recovery_log_records_scanned

(* ---- On-log format golden ---- *)

(* One record of every body kind, with field values at the codec's
   edges: nil LSNs (all-ones i64), a negative delta, i64 extremes and
   multi-entry checkpoint lists. *)
let every_body_kind =
  let phys = Record.Physical { off = 0xFFFF; before = "\x00\xffab"; after = "xy\x80\x7f" } in
  [
    { Record.txn = 1; prev = Lsn.nil; body = Update { pid = pid 3; psn_before = 0; op = phys } };
    {
      Record.txn = 1;
      prev = 0;
      body =
        Update
          { pid = pid 4; psn_before = 1 lsl 40; op = Delta { off = 8; delta = Int64.min_int } };
    };
    {
      Record.txn = 2;
      prev = 77;
      body =
        Clr
          {
            pid = pid 5;
            psn_before = 9;
            op = Delta { off = 16; delta = Int64.max_int };
            undo_next = Lsn.nil;
          };
    };
    {
      Record.txn = 2;
      prev = 120;
      body = Clr { pid = pid 3; psn_before = 1; op = Record.invert phys; undo_next = 0 };
    };
    { Record.txn = 1; prev = 41; body = Commit };
    { Record.txn = 2; prev = 150; body = Abort };
    { Record.txn = max_int; prev = 0x7FFF_FFFF; body = Savepoint "sp\x00-é" };
    {
      Record.txn = Record.system_txn;
      prev = Lsn.nil;
      body =
        Checkpoint_begin
          {
            dpt =
              [
                { Record.pid = pid 3; psn_first = 0; curr_psn = 2; redo_lsn = 0 };
                {
                  Record.pid = Page_id.make ~owner:7 ~slot:1023;
                  psn_first = 5;
                  curr_psn = 6;
                  redo_lsn = Lsn.nil;
                };
              ];
            active =
              [ { Record.txn = 1; last_lsn = 41 }; { Record.txn = min_int; last_lsn = Lsn.nil } ];
          };
    };
    { Record.txn = Record.system_txn; prev = 200; body = Checkpoint_end };
  ]

(* The frames ([u32 len | u32 crc | payload]) and the record encoding
   are the on-log format: a codec change must leave every LSN and every
   byte where it is. *)
let test_log_bytes_golden () =
  let log = mk () in
  let lsns = List.map (Log_manager.append log) every_body_kind in
  Alcotest.(check (list int)) "lsns" [ 0; 62; 116; 178; 248; 273; 298; 333; 462 ] lsns;
  let bytes = Log_device.read (Log_manager.device log) ~pos:0 ~len:(Log_manager.end_lsn log) in
  Alcotest.(check int) "length" 487 (String.length bytes);
  Alcotest.(check string) "md5" "a7d26935914aa0eb54165f73aa2f58fe"
    (Digest.to_hex (Digest.string bytes));
  let back = Log_manager.fold log ~from:Lsn.nil ~init:[] (fun acc _ r -> r :: acc) in
  Alcotest.(check (list string)) "scan decodes every kind"
    (List.map (Format.asprintf "%a" Record.pp) every_body_kind)
    (List.rev_map (Format.asprintf "%a" Record.pp) back)

(* The frame header is [u32 len | u32 crc]. *)
let header_size = 8

(* A well-formed frame (correct length and CRC) whose payload holds one
   byte after the record: the decode must consume the frame exactly. *)
let test_log_frame_trailing_bytes () =
  let log = mk () in
  let l1 = Log_manager.append log (commit_record 1 Lsn.nil) in
  let payload =
    Bytes.to_string (Codec.with_scratch (fun e -> Record.encode e (commit_record 2 l1))) ^ "\x00"
  in
  let e = Codec.encoder () in
  Codec.u32 e (String.length payload);
  Codec.u32 e (Repro_util.Crc32.string payload land 0x7FFF_FFFF);
  let l2 = Log_device.append (Log_manager.device log) (Codec.to_string e ^ payload) in
  Alcotest.(check bool) "read raises Corrupt" true
    (try
       ignore (Log_manager.read log l2);
       false
     with Codec.Corrupt _ -> true);
  let seen = Log_manager.fold log ~from:Lsn.nil ~init:[] (fun acc lsn _ -> lsn :: acc) in
  Alcotest.(check (list int)) "scan stops at the bad frame" [ l1 ] seen

let test_log_scribbled_payload () =
  let log = mk () in
  let lsns = List.map (fun i -> Log_manager.append log (commit_record i Lsn.nil)) [ 1; 2; 3 ] in
  let mid = List.nth lsns 1 in
  Log_device.scribble (Log_manager.device log) ~pos:(mid + header_size + 3);
  Alcotest.(check bool) "read at the scribbled record raises Corrupt" true
    (try
       ignore (Log_manager.read log mid);
       false
     with Codec.Corrupt _ -> true);
  Alcotest.(check int) "the record before it still reads" 1
    (Log_manager.read log (List.hd lsns)).Record.txn;
  let seen = Log_manager.fold log ~from:Lsn.nil ~init:[] (fun acc lsn _ -> lsn :: acc) in
  Alcotest.(check (list int)) "fold stops exactly there" [ List.hd lsns ] seen

(* ---- Damage after verification ---- *)

let update_record i =
  {
    Record.txn = i;
    prev = Lsn.nil;
    body = Update { pid = pid i; psn_before = i; op = Delta { off = 0; delta = 1L } };
  }

let append_updates log ids = List.map (fun i -> Log_manager.append log (update_record i)) ids

(* A full scan: it verifies every frame it passes. *)
let scanned log =
  List.rev (Log_manager.fold log ~from:Lsn.nil ~init:[] (fun acc lsn _ -> lsn :: acc))

let raises_corrupt f = match f () with _ -> false | exception Codec.Corrupt _ -> true

(* The frame at [List.nth lsns i] (record [update_record i]) is damaged:
   every random read raises, and both scans stop just before it. *)
let check_damaged log lsns i =
  let lsn = List.nth lsns i in
  Alcotest.(check bool) "read raises Corrupt" true
    (raises_corrupt (fun () -> ignore (Log_manager.read log lsn)));
  Alcotest.(check bool) "read_op raises Corrupt" true
    (raises_corrupt (fun () -> ignore (Log_manager.read_op log lsn ~pid:(pid i) ~psn_before:i)));
  Alcotest.(check bool) "next_lsn raises Corrupt" true
    (raises_corrupt (fun () -> ignore (Log_manager.next_lsn log lsn)));
  let before = List.filteri (fun j _ -> j < i) lsns in
  Alcotest.(check (list int)) "fold stops before the damaged frame" before (scanned log);
  let heads =
    Log_manager.fold_heads log ~from:Lsn.nil ~init:[]
      (fun acc lsn ~txn:_ ~kind:_ ~owner:_ ~slot:_ ~psn_before:_ -> lsn :: acc)
  in
  Alcotest.(check (list int)) "fold_heads stops before the damaged frame" before (List.rev heads)

(* [frame] with one byte of its record's transaction id flipped: the
   structure still holds, so only the CRC tells the damage. *)
let flip_txn_byte frame =
  let b = Bytes.of_string frame in
  let pos = header_size + Record.txn_offset in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0xFF));
  Bytes.to_string b

let test_log_verified_then_scribbled () =
  let log = mk () in
  let lsns = append_updates log [ 0; 1; 2; 3 ] in
  Alcotest.(check (list int)) "the full scan passes every frame" lsns (scanned log);
  Log_device.scribble (Log_manager.device log)
    ~pos:(List.nth lsns 2 + header_size + Record.txn_offset);
  check_damaged log lsns 2

(* A cut inside a verified frame, then the cut bytes written back with
   one flipped: the frame is whole again, and still caught. *)
let test_log_verified_then_cut () =
  let log = mk () in
  let lsns = append_updates log [ 0; 1; 2; 3 ] in
  let dev = Log_manager.device log in
  let l2 = List.nth lsns 2 in
  let frame = Log_device.read dev ~pos:l2 ~len:(List.nth lsns 3 - l2) in
  ignore (scanned log);
  let cut = header_size + Record.txn_offset in
  Log_device.trim_end dev (l2 + cut);
  check_damaged log (List.filteri (fun j _ -> j <= 2) lsns) 2;
  let bad = flip_txn_byte frame in
  ignore (Log_device.append dev (String.sub bad cut (String.length bad - cut)));
  check_damaged log lsns 2

(* A crash drops a verified unforced tail; bytes appended at the old
   offsets are checked afresh. *)
let test_log_verified_then_crashed () =
  let log = mk () in
  let forced = append_updates log [ 0; 1 ] in
  Log_manager.force_all log;
  let unforced = append_updates log [ 2; 3 ] in
  let lsns = forced @ unforced in
  let dev = Log_manager.device log in
  let l2 = List.nth lsns 2 in
  Alcotest.(check (list int)) "the full scan passes the unforced tail" lsns (scanned log);
  let tail = Log_device.read dev ~pos:l2 ~len:(Log_manager.end_lsn log - l2) in
  Log_manager.crash log;
  Alcotest.(check int) "the tail is gone" l2 (Log_manager.end_lsn log);
  ignore (Log_device.append dev (flip_txn_byte tail));
  check_damaged log lsns 2

(* A rollback has read the unforced tail after a full scan verified it;
   a torn crash keeps part of that tail, and [seal] still trims it back
   to the old durable boundary. *)
let test_log_verified_tail_torn () =
  let plan =
    {
      Repro_fault.Fault_plan.none with
      disk = { Repro_fault.Fault_plan.torn = 1.0; corrupt = 0.5 };
    }
  in
  for seed = 0 to 7 do
    let env = Env.create Config.instant in
    let m = Metrics.create () in
    let log = Log_manager.create env m () in
    ignore (append_updates log [ 0; 1 ]);
    Log_manager.force_all log;
    let durable = Log_manager.end_lsn log in
    let unforced = append_updates log [ 2; 3 ] in
    ignore (scanned log);
    List.iter (fun lsn -> ignore (Log_manager.read log lsn)) (List.rev unforced);
    let inj = Repro_fault.Injector.create { plan with Repro_fault.Fault_plan.seed } in
    Log_manager.crash ~faults:inj log;
    Alcotest.(check int) "the crash tore the tail" 1 m.Metrics.torn_crashes;
    let torn_end = Log_manager.end_lsn log in
    Alcotest.(check int) "seal discards every torn byte" (torn_end - durable)
      (Log_manager.seal log);
    Alcotest.(check int) "back at the old durable boundary" durable (Log_manager.end_lsn log)
  done

(* ---- Heads-only scan vs full decode ---- *)

let gen_string = QCheck.Gen.(string_size (int_bound 12))

let gen_any_op =
  QCheck.Gen.(
    oneof
      [
        map3 (fun off before after -> Record.Physical { off; before; after }) (int_bound 8192)
          gen_string gen_string;
        map2 (fun off d -> Record.Delta { off; delta = Int64.of_int d }) (int_bound 8192) int;
      ])

let gen_pid =
  QCheck.Gen.(
    map2 (fun owner slot -> Page_id.make ~owner ~slot)
      (oneofl [ 0; 1; 7; 0xFFFF_FFFF ])
      (oneof [ int_bound 64; return 0xFFFF_FFFF ]))

let gen_lsn = QCheck.Gen.(oneof [ return Lsn.nil; int_bound 100_000 ])

(* Every body kind, with the field widths varied: image and name
   lengths, list lengths, u32 and i64 extremes. *)
let gen_body =
  QCheck.Gen.(
    frequency
      [
        ( 4,
          map3
            (fun pid psn_before op -> Record.Update { pid; psn_before; op })
            gen_pid int gen_any_op );
        ( 2,
          map4
            (fun pid psn_before op undo_next -> Record.Clr { pid; psn_before; op; undo_next })
            gen_pid int gen_any_op gen_lsn );
        (1, map (fun name -> Record.Savepoint name) gen_string);
        (1, return Record.Commit);
        (1, return Record.Abort);
        ( 1,
          map2
            (fun dpt active -> Record.Checkpoint_begin { dpt; active })
            (list_size (int_bound 3)
               (map3
                  (fun pid psn_first redo_lsn ->
                    { Record.pid; psn_first; curr_psn = psn_first + 1; redo_lsn })
                  gen_pid (int_bound 1000) gen_lsn))
            (list_size (int_bound 3)
               (map2 (fun txn last_lsn -> { Record.txn; last_lsn }) int gen_lsn)) );
        (1, return Record.Checkpoint_end);
      ])

let gen_any_record =
  QCheck.Gen.(
    map3
      (fun txn prev body -> { Record.txn; prev; body })
      (oneof [ int_bound 50; return Record.system_txn; return max_int ])
      gen_lsn gen_body)

type damage = Intact | Scribble of int | Cut of int

(* A log, the damage done to it (a scribbled byte or a cut tail, at the
   drawn position modulo the log's length), and whether a full scan
   verified every frame before the damage. *)
let gen_damaged_log =
  QCheck.Gen.(
    triple (list_size (int_range 1 24) gen_any_record)
      (frequency
         [
           (1, return Intact);
           (2, map (fun x -> Scribble x) (int_bound 1_000_000));
           (2, map (fun x -> Cut x) (int_bound 1_000_000));
         ])
      bool)

let kind_of_body : Record.body -> Record.Kind.t = function
  | Update _ -> Update
  | Clr _ -> Clr
  | Commit -> Commit
  | Abort -> Abort
  | Savepoint _ -> Savepoint
  | Checkpoint_begin _ -> Checkpoint_begin
  | Checkpoint_end -> Checkpoint_end

(* Builds the log on its own clock and metrics, damages it, scans it,
   and returns the LSNs appended, how many frames precede the damage,
   the scan's result, the records-scanned count and the simulated clock
   after the scan.  Before the damage one full scan runs over the intact
   bytes: over the log itself when [verified], which verifies every
   frame, and otherwise over an identical twin log, which charges the
   same and leaves the log fresh. *)
let scan_damaged (records, damage, verified) scan =
  let env = Env.create Config.default in
  let m = Metrics.create () in
  let twin = Log_manager.create env m () in
  List.iter (fun r -> ignore (Log_manager.append twin r)) records;
  let log = Log_manager.create env m () in
  let lsns = List.map (Log_manager.append log) records in
  Log_manager.fold_heads (if verified then log else twin) ~from:Lsn.nil ~init:()
    (fun () _ ~txn:_ ~kind:_ ~owner:_ ~slot:_ ~psn_before:_ -> ());
  let dev = Log_manager.device log in
  let size = Log_manager.end_lsn log in
  (* the frames that end at or before the damaged byte *)
  let before pos = List.length (List.filter (fun stop -> stop <= pos) (List.tl lsns @ [ size ])) in
  let intact =
    match damage with
    | Intact -> List.length records
    | Scribble x ->
      Log_device.scribble dev ~pos:(x mod size);
      before (x mod size)
    | Cut x ->
      Log_device.trim_end dev (x mod size);
      before (x mod size)
  in
  let seen = scan log in
  (lsns, intact, seen, m.Metrics.recovery_log_records_scanned, Env.now env)

let print_damaged (records, damage, verified) =
  Printf.sprintf "%s damage=%s verified=%b"
    (String.concat "; " (List.map (Format.asprintf "%a" Record.pp) records))
    (match damage with
    | Intact -> "none"
    | Scribble x -> Printf.sprintf "scribble %d" x
    | Cut x -> Printf.sprintf "cut %d" x)
    verified

let fold_scan log =
  Log_manager.fold log ~from:Lsn.nil ~init:[] (fun acc lsn (r : Record.t) ->
      let owner, slot = match Record.page_of r with Some p -> (p.owner, p.slot) | None -> (0, 0) in
      let psn = Option.value (Record.psn_before_of r) ~default:0 in
      (lsn, r.txn, kind_of_body r.body, owner, slot, psn) :: acc)

let heads_scan log =
  Log_manager.fold_heads log ~from:Lsn.nil ~init:[]
    (fun acc lsn ~txn ~kind ~owner ~slot ~psn_before ->
      (lsn, txn, kind, owner, slot, psn_before) :: acc)

(* Both scans see the same (lsn, txn, kind, page, psn) sequence, stop at
   the first damaged frame (or the end of an intact log), and charge the
   same records-scanned count and simulated time; on a log verified
   before the damage, they see and charge exactly what they do on a
   fresh log. *)
let prop_fold_heads_matches_fold =
  QCheck.Test.make ~name:"log: fold_heads agrees with fold on damaged logs" ~count:500
    (QCheck.make ~print:print_damaged gen_damaged_log)
    (fun ((records, damage, _) as input) ->
      let lsns, intact, fresh, fresh_scanned, fresh_clock =
        scan_damaged (records, damage, false) fold_scan
      in
      let _, _, full, full_scanned, full_clock = scan_damaged input fold_scan in
      let _, _, heads, heads_scanned, heads_clock = scan_damaged input heads_scan in
      let prescanned = List.length records in
      full = fresh && heads = fresh
      && List.rev_map (fun (lsn, _, _, _, _, _) -> lsn) fresh
         = List.filteri (fun i _ -> i < intact) lsns
      && fresh_scanned = prescanned + intact
      && full_scanned = fresh_scanned
      && heads_scanned = fresh_scanned
      && Float.equal full_clock fresh_clock
      && Float.equal heads_clock fresh_clock)

(* Random damage to one encoded record: bytes overwritten with values
   that hit tags and length fields, and the tail cut or extended. *)
let gen_mutated_payload =
  QCheck.Gen.(
    gen_any_record >>= fun r ->
    let s = Bytes.of_string (Bytes.to_string (Codec.with_scratch (fun e -> Record.encode e r))) in
    list_size (int_range 1 3)
      (pair (int_bound (Bytes.length s - 1))
         (oneof [ int_bound 8; return 0xFF; return 0x80; int_bound 255 ]))
    >>= fun writes ->
    List.iter (fun (pos, v) -> Bytes.set_uint8 s pos v) writes;
    oneof
      [
        return (Bytes.to_string s);
        map (fun n -> Bytes.sub_string s 0 (n mod (Bytes.length s + 1))) nat;
        map (fun extra -> Bytes.to_string s ^ extra) gen_string;
      ])

let prop_skip_matches_decode =
  QCheck.Test.make ~name:"record: skip fails and stops exactly where decode does" ~count:2000
    (QCheck.make ~print:(Printf.sprintf "%S") gen_mutated_payload)
    (fun payload ->
      let outcome walk =
        let d = Codec.decoder payload in
        match walk d with () -> Some (Codec.remaining d) | exception Codec.Corrupt _ -> None
      in
      outcome (fun d -> ignore (Record.decode d)) = outcome Record.skip)

let suite =
  [
    ("lsn nil semantics", `Quick, test_lsn_nil);
    ("record roundtrips", `Quick, test_record_roundtrips);
    ("record accessors", `Quick, test_record_accessors);
    ("op apply/invert", `Quick, test_op_apply_and_invert);
    ("record decode garbage", `Quick, test_record_decode_garbage);
    qcheck prop_record_roundtrip;
    ("log append/read", `Quick, test_log_manager_append_read);
    ("log fold and upto", `Quick, test_log_manager_fold_and_upto);
    ("log force and crash", `Quick, test_log_manager_force_and_crash);
    ("log force idempotent charge", `Quick, test_log_manager_force_counts_once);
    ("log capacity and overdraft", `Quick, test_log_manager_capacity);
    ("group commit: a bare force completes pending commits", `Quick,
      test_bare_force_completes_pending_commits);
    ("log scan charging", `Quick, test_log_manager_scan_counts);
    ("golden: log bytes of every record kind", `Quick, test_log_bytes_golden);
    ("log frame must decode exactly", `Quick, test_log_frame_trailing_bytes);
    ("log scribbled payload stops the scan", `Quick, test_log_scribbled_payload);
    ("log: a verified frame scribbled is caught on every path", `Quick,
      test_log_verified_then_scribbled);
    ("log: a verified frame cut and rewritten is caught on every path", `Quick,
      test_log_verified_then_cut);
    ("log: bytes appended over a crashed verified tail are checked", `Quick,
      test_log_verified_then_crashed);
    ("log: seal trims a torn tail that was verified and read", `Quick,
      test_log_verified_tail_torn);
    qcheck prop_fold_heads_matches_fold;
    qcheck prop_skip_matches_decode;
  ]
