(* Tests for pages, disks, allocation maps and the log device. *)

module Page = Repro_storage.Page
module Page_id = Repro_storage.Page_id
module Disk = Repro_storage.Disk
module Alloc_map = Repro_storage.Alloc_map
module Log_device = Repro_storage.Log_device
module Codec = Repro_util.Codec
module Env = Repro_sim.Env
module Metrics = Repro_sim.Metrics
module Config = Repro_sim.Config

let qcheck = QCheck_alcotest.to_alcotest
let pid ~owner ~slot = Page_id.make ~owner ~slot

(* ---- Page_id ---- *)

let test_page_id_order_and_equality () =
  let a = pid ~owner:0 ~slot:1 and b = pid ~owner:0 ~slot:2 and c = pid ~owner:1 ~slot:0 in
  Alcotest.(check bool) "a < b" true (Page_id.compare a b < 0);
  Alcotest.(check bool) "b < c (owner major)" true (Page_id.compare b c < 0);
  Alcotest.(check bool) "equal" true (Page_id.equal a (pid ~owner:0 ~slot:1));
  Alcotest.(check int) "owner" 1 (Page_id.owner c);
  Alcotest.(check string) "pp" "P1.0" (Page_id.to_string c)

let test_page_id_codec () =
  let e = Codec.encoder () in
  Page_id.encode e (pid ~owner:3 ~slot:77);
  let got = Page_id.decode (Codec.decoder (Codec.to_string e)) in
  Alcotest.(check bool) "roundtrip" true (Page_id.equal got (pid ~owner:3 ~slot:77))

(* ---- Page ---- *)

let test_page_data_ops () =
  let p = Page.create ~id:(pid ~owner:0 ~slot:0) ~psn:5 ~size:128 in
  Alcotest.(check int) "psn" 5 (Page.psn p);
  Alcotest.(check int) "size" 128 (Page.size p);
  Page.write p ~off:10 "hello";
  Alcotest.(check string) "read back" "hello" (Page.read p ~off:10 ~len:5);
  Page.set_cell p ~off:0 42L;
  Alcotest.(check int64) "cell" 42L (Page.get_cell p ~off:0);
  Page.add_cell p ~off:0 (-10L);
  Alcotest.(check int64) "add" 32L (Page.get_cell p ~off:0)

let test_page_psn_ops () =
  let p = Page.create ~id:(pid ~owner:0 ~slot:0) ~psn:0 ~size:32 in
  Page.bump_psn p;
  Page.bump_psn p;
  Alcotest.(check int) "bumped" 2 (Page.psn p);
  Page.set_psn p 10;
  Alcotest.(check int) "set" 10 (Page.psn p)

let test_page_bounds () =
  let p = Page.create ~id:(pid ~owner:0 ~slot:0) ~psn:0 ~size:16 in
  Alcotest.(check bool) "oob write raises" true
    (try
       Page.write p ~off:12 "hello";
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "oob cell raises" true
    (try
       ignore (Page.get_cell p ~off:12);
       false
     with Invalid_argument _ -> true)

let test_page_copy_is_deep () =
  let p = Page.create ~id:(pid ~owner:0 ~slot:0) ~psn:0 ~size:16 in
  let q = Page.copy p in
  Page.write p ~off:0 "x";
  Alcotest.(check string) "copy unaffected" "\x00" (Page.read q ~off:0 ~len:1)

(* Copy-on-write isolation: random copy / write / set_cell / add_cell /
   assign / bump_psn sequences over a family of images of one page must
   leave every image as a deep-copy reference model says. *)
type cow_op =
  | Copy of int * int (* image [dst] := copy of image [src] *)
  | Write of int * int * string
  | Set_cell of int * int * int64
  | Add_cell of int * int * int64
  | Assign of int * int (* image [dst] adopts the bytes of image [src] *)
  | Bump of int

let cow_images = 4
let cow_size = 32

let pp_cow_op = function
  | Copy (d, s) -> Printf.sprintf "copy %d<-%d" d s
  | Write (i, off, str) -> Printf.sprintf "write %d @%d %S" i off str
  | Set_cell (i, off, v) -> Printf.sprintf "set_cell %d @%d %Ld" i off v
  | Add_cell (i, off, v) -> Printf.sprintf "add_cell %d @%d %Ld" i off v
  | Assign (d, s) -> Printf.sprintf "assign %d<-%d" d s
  | Bump i -> Printf.sprintf "bump %d" i

let gen_cow_op =
  let open QCheck.Gen in
  let img = int_bound (cow_images - 1) in
  let cell_off = int_bound (cow_size - 8) in
  frequency
    [
      (3, map2 (fun d s -> Copy (d, s)) img img);
      ( 2,
        img >>= fun i ->
        int_bound (cow_size - 1) >>= fun off ->
        map (fun str -> Write (i, off, str)) (string_size ~gen:printable (int_bound (cow_size - off))) );
      (2, map3 (fun i off v -> Set_cell (i, off, Int64.of_int v)) img cell_off int);
      (2, map3 (fun i off v -> Add_cell (i, off, Int64.of_int v)) img cell_off small_signed_int);
      (2, map2 (fun d s -> Assign (d, s)) img img);
      (1, map (fun i -> Bump i) img);
    ]

let prop_page_cow_isolation =
  QCheck.Test.make ~name:"page: copy-on-write images match a deep-copy model" ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map pp_cow_op ops))
       QCheck.Gen.(list_size (int_range 1 40) gen_cow_op))
    (fun ops ->
      let id = pid ~owner:0 ~slot:0 in
      let first = Page.create ~id ~psn:0 ~size:cow_size in
      let images = Array.init cow_images (fun _ -> Page.copy first) in
      let model = Array.init cow_images (fun _ -> (Bytes.make cow_size '\000', ref 0)) in
      let apply = function
        | Copy (d, s) ->
          images.(d) <- Page.copy images.(s);
          let bytes, psn = model.(s) in
          model.(d) <- (Bytes.copy bytes, ref !psn)
        | Write (i, off, str) ->
          Page.write images.(i) ~off str;
          Bytes.blit_string str 0 (fst model.(i)) off (String.length str)
        | Set_cell (i, off, v) ->
          Page.set_cell images.(i) ~off v;
          Bytes.set_int64_le (fst model.(i)) off v
        | Add_cell (i, off, d) ->
          Page.add_cell images.(i) ~off d;
          let bytes = fst model.(i) in
          Bytes.set_int64_le bytes off (Int64.add (Bytes.get_int64_le bytes off) d)
        | Assign (d, s) ->
          Page.assign images.(d) ~from:images.(s);
          Bytes.blit (fst model.(s)) 0 (fst model.(d)) 0 cow_size
        | Bump i ->
          Page.bump_psn images.(i);
          incr (snd model.(i))
      in
      List.for_all
        (fun op ->
          apply op;
          Array.for_all2
            (fun image (bytes, psn) ->
              Page.read image ~off:0 ~len:cow_size = Bytes.to_string bytes && Page.psn image = !psn)
            images model)
        ops)

let test_page_assign_rejects_other_page () =
  let p = Page.create ~id:(pid ~owner:0 ~slot:0) ~psn:0 ~size:16 in
  let other_id = Page.create ~id:(pid ~owner:0 ~slot:1) ~psn:0 ~size:16 in
  let other_size = Page.create ~id:(pid ~owner:0 ~slot:0) ~psn:0 ~size:32 in
  List.iter
    (fun from ->
      Alcotest.(check bool) "raises" true
        (try
           Page.assign p ~from;
           false
         with Invalid_argument _ -> true))
    [ other_id; other_size ]

let prop_page_codec_roundtrip =
  QCheck.Test.make ~name:"page: encode/decode roundtrip" ~count:100
    QCheck.(triple small_nat small_nat (string_of_size (QCheck.Gen.return 64)))
    (fun (psn, slot, data) ->
      let p = Page.create ~id:(pid ~owner:1 ~slot) ~psn ~size:64 in
      Page.write p ~off:0 data;
      let e = Codec.encoder () in
      Page.encode e p;
      let q = Page.decode (Codec.decoder (Codec.to_string e)) in
      Page.equal_contents p q)

(* ---- Alloc_map ---- *)

let test_alloc_sequential_slots () =
  let m = Alloc_map.create ~owner:2 in
  let p0 = Alloc_map.allocate m ~page_size:64 in
  let p1 = Alloc_map.allocate m ~page_size:64 in
  Alcotest.(check int) "slot 0" 0 (Page.id p0).Page_id.slot;
  Alcotest.(check int) "slot 1" 1 (Page.id p1).Page_id.slot;
  Alcotest.(check int) "psn seed 0" 0 (Page.psn p0);
  Alcotest.(check bool) "allocated" true (Alloc_map.is_allocated m (Page.id p0))

let test_alloc_psn_seed_never_regresses () =
  (* §2.1 / ARIES-CSA: a reallocated slot starts above the old PSN *)
  let m = Alloc_map.create ~owner:0 in
  let p = Alloc_map.allocate m ~page_size:64 in
  Page.set_psn p 41;
  Alloc_map.deallocate m p;
  Alcotest.(check int) "seed remembered" 42 (Alloc_map.psn_seed m (Page.id p));
  let p' = Alloc_map.allocate m ~page_size:64 in
  Alcotest.(check bool) "slot reused" true (Page_id.equal (Page.id p) (Page.id p'));
  Alcotest.(check int) "psn continues" 42 (Page.psn p')

let test_alloc_reuses_lowest_free_slot () =
  let m = Alloc_map.create ~owner:1 in
  let pages = Array.init 5 (fun _ -> Alloc_map.allocate m ~page_size:64) in
  Page.set_psn pages.(3) 30;
  Page.set_psn pages.(1) 10;
  Alloc_map.deallocate m pages.(3);
  Alloc_map.deallocate m pages.(1);
  let a = Alloc_map.allocate m ~page_size:64 in
  let b = Alloc_map.allocate m ~page_size:64 in
  let c = Alloc_map.allocate m ~page_size:64 in
  Alcotest.(check (list int)) "lowest freed first, then extend" [ 1; 3; 5 ]
    (List.map (fun p -> (Page.id p).Page_id.slot) [ a; b; c ]);
  Alcotest.(check (list int)) "each with its remembered seed" [ 11; 31; 0 ]
    (List.map Page.psn [ a; b; c ])

let test_alloc_double_free_rejected () =
  let m = Alloc_map.create ~owner:0 in
  let p = Alloc_map.allocate m ~page_size:64 in
  Alloc_map.deallocate m p;
  Alcotest.(check bool) "double free raises" true
    (try
       Alloc_map.deallocate m p;
       false
     with Invalid_argument _ -> true)

(* ---- Disk ---- *)

let env () = Env.create Config.instant

let test_disk_read_write () =
  let e = env () in
  let m = Metrics.create () in
  let d = Disk.create e m in
  let p = Page.create ~id:(pid ~owner:0 ~slot:3) ~psn:7 ~size:32 in
  Page.write p ~off:0 "data";
  Disk.write d p;
  (match Disk.read d (Page.id p) with
  | Some q ->
    Alcotest.(check bool) "same contents" true (Page.equal_contents p q);
    (* mutating the read copy must not touch the durable version *)
    Page.write q ~off:0 "XXXX";
    (match Disk.read d (Page.id p) with
    | Some r -> Alcotest.(check string) "durable isolated" "data" (Page.read r ~off:0 ~len:4)
    | None -> Alcotest.fail "lost page")
  | None -> Alcotest.fail "missing page");
  Alcotest.(check (option int)) "psn on disk" (Some 7) (Disk.psn_on_disk d (Page.id p));
  Alcotest.(check int) "reads charged" 3 m.Metrics.page_disk_reads;
  Alcotest.(check int) "writes charged" 1 m.Metrics.page_disk_writes

let test_disk_missing () =
  let e = env () in
  let d = Disk.create e (Metrics.create ()) in
  Alcotest.(check bool) "none" true (Disk.read d (pid ~owner:0 ~slot:9) = None);
  Alcotest.(check bool) "mem" false (Disk.mem d (pid ~owner:0 ~slot:9))

(* ---- Log_device ---- *)

let test_log_device_append_force () =
  let d = Log_device.create () in
  let o1 = Log_device.append d "aaaa" in
  let o2 = Log_device.append d "bb" in
  Alcotest.(check int) "offsets" 0 o1;
  Alcotest.(check int) "offsets" 4 o2;
  Alcotest.(check int) "end" 6 (Log_device.end_offset d);
  Alcotest.(check int) "durable 0" 0 (Log_device.durable_offset d);
  let moved = Log_device.force d ~upto:5 in
  Alcotest.(check int) "moved" 5 moved;
  Alcotest.(check int) "no-op force" 0 (Log_device.force d ~upto:3)

let test_log_device_crash_loses_tail () =
  let d = Log_device.create () in
  ignore (Log_device.append d "aaaa");
  ignore (Log_device.force d ~upto:4);
  ignore (Log_device.append d "bbbb");
  Log_device.crash d;
  Alcotest.(check int) "tail gone" 4 (Log_device.end_offset d);
  Alcotest.(check string) "durable prefix intact" "aaaa" (Log_device.read d ~pos:0 ~len:4)

let test_log_device_capacity () =
  let d = Log_device.create ~capacity:8 () in
  ignore (Log_device.append d "123456");
  Alcotest.(check (option int)) "available" (Some 2) (Log_device.available d);
  Alcotest.check_raises "full" Log_device.Log_full (fun () ->
      ignore (Log_device.append d "xyz"));
  (* overdraft ignores the limit *)
  ignore (Log_device.append ~overdraft:true d "xyz");
  (* truncation frees space *)
  ignore (Log_device.force d ~upto:9);
  Log_device.truncate_to d 6;
  Alcotest.(check int) "low water" 6 (Log_device.low_water d);
  Alcotest.(check int) "used" 3 (Log_device.used d)

let test_log_device_read_below_low_water () =
  let d = Log_device.create () in
  ignore (Log_device.append d "abcdef");
  ignore (Log_device.force d ~upto:6);
  Log_device.truncate_to d 4;
  Alcotest.(check bool) "reclaimed read raises" true
    (try
       ignore (Log_device.read d ~pos:0 ~len:2);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check string) "live region readable" "ef" (Log_device.read d ~pos:4 ~len:2)

let test_log_device_truncate_clamped_to_durable () =
  let d = Log_device.create () in
  ignore (Log_device.append d "abcdef");
  (* nothing durable: truncation cannot advance *)
  Log_device.truncate_to d 6;
  Alcotest.(check int) "clamped" 0 (Log_device.low_water d)

let test_log_device_scribble_flips_one_byte () =
  let d = Log_device.create () in
  ignore (Log_device.append d "abcdef");
  Log_device.scribble d ~pos:2;
  Alcotest.(check string) "only byte 2 flipped" "ab\x9cdef" (Log_device.read d ~pos:0 ~len:6);
  Log_device.scribble d ~pos:2;
  Alcotest.(check string) "flipping twice restores" "abcdef" (Log_device.read d ~pos:0 ~len:6);
  Alcotest.(check bool) "past the end rejected" true
    (try
       Log_device.scribble d ~pos:6;
       false
     with Invalid_argument _ -> true)

let test_log_device_trim_end_then_append () =
  let d = Log_device.create () in
  ignore (Log_device.append d "aaaa");
  ignore (Log_device.append d "bbbb");
  ignore (Log_device.force d ~upto:8);
  Log_device.trim_end d 6;
  Alcotest.(check int) "end" 6 (Log_device.end_offset d);
  Alcotest.(check int) "durable clamped" 6 (Log_device.durable_offset d);
  Alcotest.(check int) "next append at the trim point" 6 (Log_device.append d "cc");
  Alcotest.(check string) "bytes" "aaaabbcc" (Log_device.read d ~pos:0 ~len:8)

let test_log_device_crash_keep_tail () =
  let d = Log_device.create () in
  ignore (Log_device.append d "aaaa");
  ignore (Log_device.force d ~upto:4);
  ignore (Log_device.append d "bbbbbb");
  Log_device.crash ~keep_tail:3 d;
  Alcotest.(check int) "durable + k bytes remain" 7 (Log_device.end_offset d);
  Alcotest.(check int) "torn bytes count as written" 7 (Log_device.durable_offset d);
  Alcotest.(check (option int)) "suspect at the old boundary" (Some 4) (Log_device.suspect d);
  Alcotest.(check string) "kept prefix of the tail" "aaaabbb" (Log_device.read d ~pos:0 ~len:7);
  ignore (Log_device.append d "cccc");
  Log_device.crash ~keep_tail:100 d;
  Alcotest.(check int) "keep_tail clamped to the tail" 11 (Log_device.end_offset d)

(* Crash and trim cut the log in place: the old bytes are still in the
   backing store, so every read must be bounded by [end_offset]. *)
let test_log_device_stale_bytes_unreadable () =
  let d = Log_device.create () in
  ignore (Log_device.append d "aaaa");
  ignore (Log_device.force d ~upto:4);
  ignore (Log_device.append d "bbbbbbbb");
  Log_device.crash d;
  ignore (Log_device.append d "cc");
  Alcotest.(check int) "end" 6 (Log_device.end_offset d);
  Alcotest.(check string) "re-appended bytes" "aaaacc" (Log_device.read d ~pos:0 ~len:6);
  let unreadable ~pos ~len =
    try
      ignore (Log_device.read d ~pos ~len);
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "stale byte past end" true (unreadable ~pos:6 ~len:1);
  Alcotest.(check bool) "straddling the end" true (unreadable ~pos:4 ~len:4);
  Alcotest.(check bool) "view is checked too" true
    (try
       ignore (Log_device.view d ~pos:6 ~len:2);
       false
     with Invalid_argument _ -> true)

let suite =
  [
    ("page_id order/equality", `Quick, test_page_id_order_and_equality);
    ("page_id codec", `Quick, test_page_id_codec);
    ("page data ops", `Quick, test_page_data_ops);
    ("page psn ops", `Quick, test_page_psn_ops);
    ("page bounds", `Quick, test_page_bounds);
    ("page copy is deep", `Quick, test_page_copy_is_deep);
    qcheck prop_page_cow_isolation;
    ("page assign rejects another page", `Quick, test_page_assign_rejects_other_page);
    qcheck prop_page_codec_roundtrip;
    ("alloc sequential slots", `Quick, test_alloc_sequential_slots);
    ("alloc PSN seed never regresses", `Quick, test_alloc_psn_seed_never_regresses);
    ("alloc reuses lowest free slot", `Quick, test_alloc_reuses_lowest_free_slot);
    ("alloc double free rejected", `Quick, test_alloc_double_free_rejected);
    ("disk read/write isolation", `Quick, test_disk_read_write);
    ("disk missing page", `Quick, test_disk_missing);
    ("log device append/force", `Quick, test_log_device_append_force);
    ("log device crash loses tail", `Quick, test_log_device_crash_loses_tail);
    ("log device capacity/overdraft", `Quick, test_log_device_capacity);
    ("log device reclaimed reads", `Quick, test_log_device_read_below_low_water);
    ("log device truncate clamps", `Quick, test_log_device_truncate_clamped_to_durable);
    ("log device scribble flips one byte", `Quick, test_log_device_scribble_flips_one_byte);
    ("log device trim_end then append", `Quick, test_log_device_trim_end_then_append);
    ("log device crash keeps k tail bytes", `Quick, test_log_device_crash_keep_tail);
    ("log device stale bytes unreadable", `Quick, test_log_device_stale_bytes_unreadable);
  ]
