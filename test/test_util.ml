(* Unit and property tests for the repro_util substrate. *)

module Rng = Repro_util.Rng
module Zipf = Repro_util.Zipf
module Heap = Repro_util.Heap
module Crc32 = Repro_util.Crc32
module Codec = Repro_util.Codec
module Stats = Repro_util.Stats

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

(* ---- Rng ---- *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Rng.next_int64 a) (Rng.next_int64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  Alcotest.(check bool) "different streams" false (Rng.next_int64 a = Rng.next_int64 b)

let test_rng_split_independent () =
  let parent = Rng.create 7 in
  let child = Rng.split parent in
  let c1 = Rng.next_int64 child in
  (* drawing from the parent must not affect the child's future *)
  let parent2 = Rng.create 7 in
  let child2 = Rng.split parent2 in
  check Alcotest.int64 "split reproducible" c1 (Rng.next_int64 child2)

let test_rng_int_bounds () =
  let rng = Rng.create 3 in
  for _ = 1 to 10_000 do
    let v = Rng.int rng 7 in
    Alcotest.(check bool) "in [0,7)" true (v >= 0 && v < 7)
  done

let test_rng_int_in_range () =
  let rng = Rng.create 3 in
  for _ = 1 to 1_000 do
    let v = Rng.int_in_range rng ~lo:(-5) ~hi:5 in
    Alcotest.(check bool) "in [-5,5]" true (v >= -5 && v <= 5)
  done

let test_rng_float_bounds () =
  let rng = Rng.create 5 in
  for _ = 1 to 1_000 do
    let v = Rng.float rng 2.5 in
    Alcotest.(check bool) "in [0,2.5)" true (v >= 0. && v < 2.5)
  done

let test_rng_chance_extremes () =
  let rng = Rng.create 5 in
  Alcotest.(check bool) "p=0 never" false (Rng.chance rng 0.);
  Alcotest.(check bool) "p=1 always" true (Rng.chance rng 1.)

let test_rng_shuffle_permutation () =
  let rng = Rng.create 11 in
  let arr = Array.init 50 (fun i -> i) in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 (fun i -> i)) sorted

let test_rng_pick_member () =
  let rng = Rng.create 13 in
  let arr = [| "a"; "b"; "c" |] in
  for _ = 1 to 100 do
    Alcotest.(check bool) "member" true (Array.mem (Rng.pick rng arr) arr)
  done

(* ---- Zipf ---- *)

let test_zipf_bounds () =
  let rng = Rng.create 17 in
  let z = Zipf.create ~n:10 ~theta:0.9 in
  Alcotest.(check int) "n" 10 (Zipf.n z);
  for _ = 1 to 5_000 do
    let v = Zipf.sample z rng in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 10)
  done

let test_zipf_skew () =
  let rng = Rng.create 19 in
  let z = Zipf.create ~n:100 ~theta:1.0 in
  let counts = Array.make 100 0 in
  for _ = 1 to 20_000 do
    let v = Zipf.sample z rng in
    counts.(v) <- counts.(v) + 1
  done;
  Alcotest.(check bool) "rank 0 much hotter than rank 99" true (counts.(0) > 10 * (counts.(99) + 1))

let test_zipf_uniform_when_theta_zero () =
  let rng = Rng.create 23 in
  let z = Zipf.create ~n:4 ~theta:0. in
  let counts = Array.make 4 0 in
  for _ = 1 to 40_000 do
    let v = Zipf.sample z rng in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iter
    (fun c -> Alcotest.(check bool) "roughly uniform" true (c > 8_000 && c < 12_000))
    counts

(* ---- Heap ---- *)

let test_heap_basic () =
  let h = Heap.create () in
  Alcotest.(check bool) "starts empty" true (Heap.is_empty h);
  List.iter (Heap.push h) [ 5; 1; 4; 1; 3 ];
  Alcotest.(check int) "length" 5 (Heap.length h);
  Alcotest.(check int) "min" 1 (Heap.min_key h);
  let drained = List.init 5 (fun _ -> Heap.pop_min h) in
  Alcotest.(check (list int)) "pops ascending with duplicates" [ 1; 1; 3; 4; 5 ] drained;
  Alcotest.(check bool) "empty after drain" true (Heap.is_empty h)

let test_heap_growth_and_clear () =
  (* a tiny initial capacity forces the doubling path *)
  let h = Heap.create ~capacity:2 () in
  for i = 99 downto 0 do
    Heap.push h i
  done;
  Alcotest.(check int) "length after growth" 100 (Heap.length h);
  Alcotest.(check int) "min after growth" 0 (Heap.min_key h);
  Heap.clear h;
  Alcotest.(check bool) "clear empties" true (Heap.is_empty h);
  Heap.push h 7;
  Alcotest.(check int) "usable after clear" 7 (Heap.pop_min h)

let test_heap_empty_raises () =
  let h = Heap.create () in
  Alcotest.(check bool) "min_key raises" true
    (match Heap.min_key h with _ -> false | exception Invalid_argument _ -> true);
  Alcotest.(check bool) "remove_min raises" true
    (match Heap.remove_min h with () -> false | exception Invalid_argument _ -> true)

let prop_heap_drains_sorted =
  QCheck.Test.make ~name:"heap: drains in sorted order" ~count:200
    QCheck.(list int)
    (fun keys ->
      let h = Heap.create ~capacity:1 () in
      List.iter (Heap.push h) keys;
      let drained = List.init (List.length keys) (fun _ -> Heap.pop_min h) in
      Heap.is_empty h && drained = List.sort compare keys)

(* ---- Crc32 ---- *)

let test_crc32_known_vector () =
  (* CRC-32 of "123456789" is 0xCBF43926 *)
  check Alcotest.int "check vector" 0xCBF43926 (Crc32.string "123456789")

let test_crc32_empty () = check Alcotest.int "empty" 0 (Crc32.string "")

let test_crc32_sensitivity () =
  Alcotest.(check bool) "bit flip changes CRC" false
    (Crc32.string "hello world" = Crc32.string "hello worle")

let test_crc32_slice () =
  let b = Bytes.of_string "xx123456789yy" in
  check Alcotest.int "slice" 0xCBF43926 (Crc32.bytes b ~pos:2 ~len:9)

(* The textbook bitwise CRC-32: eight shift/xor steps per byte, no
   table.  The slicing-by-8 implementation must agree with it on every
   slice. *)
let crc32_reference s ~pos ~len =
  let c = ref 0xFFFF_FFFF in
  for i = pos to pos + len - 1 do
    c := !c lxor Char.code s.[i];
    for _ = 1 to 8 do
      c := if !c land 1 = 1 then (!c lsr 1) lxor 0xEDB88320 else !c lsr 1
    done
  done;
  !c lxor 0xFFFF_FFFF

let test_crc32_short_unaligned_slices () =
  let s = String.init 40 (fun i -> Char.chr (((i * 151) + 7) land 0xFF)) in
  for pos = 0 to 7 do
    for len = 0 to 17 do
      check Alcotest.int
        (Printf.sprintf "pos %d len %d" pos len)
        (crc32_reference s ~pos ~len)
        (Crc32.bytes (Bytes.of_string s) ~pos ~len)
    done
  done

let gen_slice =
  QCheck.Gen.(
    string_size (int_bound 64) >>= fun s ->
    int_bound (String.length s) >>= fun pos ->
    int_bound (String.length s - pos) >|= fun len -> (s, pos, len))

let prop_crc32_matches_reference =
  QCheck.Test.make ~name:"crc32: slicing-by-8 matches the bitwise reference" ~count:1000
    (QCheck.make ~print:(fun (s, pos, len) -> Printf.sprintf "%S pos=%d len=%d" s pos len)
       gen_slice)
    (fun (s, pos, len) -> Crc32.bytes (Bytes.of_string s) ~pos ~len = crc32_reference s ~pos ~len)

let prop_crc32_chains =
  QCheck.Test.make ~name:"crc32: update chains across a split" ~count:500
    QCheck.(pair string string)
    (fun (a, b) ->
      Crc32.update (Crc32.string a) (Bytes.of_string b) ~pos:0 ~len:(String.length b)
      = Crc32.string (a ^ b))

(* ---- Codec ---- *)

let roundtrip encode decode v =
  let e = Codec.encoder () in
  encode e v;
  decode (Codec.decoder (Codec.to_string e))

let test_codec_ints () =
  Alcotest.(check int) "u8" 200 (roundtrip Codec.u8 Codec.read_u8 200);
  Alcotest.(check int) "u32" 0x7FFFFFFF (roundtrip Codec.u32 Codec.read_u32 0x7FFFFFFF);
  check Alcotest.int64 "i64 negative" (-123456789L)
    (roundtrip Codec.i64 Codec.read_i64 (-123456789L));
  Alcotest.(check int) "int_as_i64" min_int
    (roundtrip Codec.int_as_i64 Codec.read_int_as_i64 min_int)

let test_codec_int_boundaries () =
  Alcotest.(check int) "u32 max" 0xFFFF_FFFF (roundtrip Codec.u32 Codec.read_u32 0xFFFF_FFFF);
  check Alcotest.int64 "i64 min" Int64.min_int (roundtrip Codec.i64 Codec.read_i64 Int64.min_int);
  check Alcotest.int64 "i64 max" Int64.max_int (roundtrip Codec.i64 Codec.read_i64 Int64.max_int);
  Alcotest.(check int) "int_as_i64 -1 (Lsn.nil)" (-1)
    (roundtrip Codec.int_as_i64 Codec.read_int_as_i64 (-1));
  let e = Codec.encoder () in
  Codec.int_as_i64 e (-1);
  Codec.u32 e 0x89AB_CDEF;
  Alcotest.(check string) "little-endian bytes"
    "\xff\xff\xff\xff\xff\xff\xff\xff\xef\xcd\xab\x89" (Codec.to_string e)

(* A decoder bounded to one frame must not read the next frame's bytes,
   even when the source has them. *)
let test_codec_bounded_decoder () =
  let e = Codec.encoder () in
  Codec.u32 e 7;
  Codec.bytes e "abcdefgh";
  let s = Codec.to_string e in
  let d = Codec.decoder ~pos:0 ~len:4 s in
  Alcotest.(check int) "inside the bound" 7 (Codec.read_u32 d);
  Alcotest.check_raises "past the bound" (Codec.Corrupt "truncated input: need 4 bytes, have 0")
    (fun () -> ignore (Codec.read_u32 d));
  let d = Codec.decoder ~pos:4 ~len:10 s in
  Alcotest.check_raises "length prefix past the bound"
    (Codec.Corrupt "truncated input: need 8 bytes, have 6") (fun () ->
      ignore (Codec.read_bytes d));
  Alcotest.(check string) "same slice, unbounded" "abcdefgh"
    (Codec.read_bytes (Codec.decoder ~pos:4 s));
  Alcotest.(check bool) "slice outside the source" true
    (try
       ignore (Codec.decoder ~pos:4 ~len:13 s);
       false
     with Invalid_argument _ -> true)

let test_codec_bytes_and_collections () =
  Alcotest.(check string) "bytes" "hello\x00world"
    (roundtrip Codec.bytes Codec.read_bytes "hello\x00world");
  Alcotest.(check (list int)) "list" [ 1; 2; 3 ]
    (roundtrip (Codec.list Codec.u32) (Codec.read_list Codec.read_u32) [ 1; 2; 3 ])

let test_codec_truncation_detected () =
  let e = Codec.encoder () in
  Codec.bytes e "abcdefgh";
  let s = Codec.to_string e in
  let short = String.sub s 0 (String.length s - 2) in
  Alcotest.check_raises "truncated" (Codec.Corrupt "truncated input: need 8 bytes, have 6")
    (fun () -> ignore (Codec.read_bytes (Codec.decoder short)))

let prop_codec_string_roundtrip =
  QCheck.Test.make ~name:"codec: bytes roundtrip" ~count:500 QCheck.string (fun s ->
      roundtrip Codec.bytes Codec.read_bytes s = s)

let prop_codec_i64_roundtrip =
  QCheck.Test.make ~name:"codec: i64 roundtrip" ~count:500 QCheck.int64 (fun v ->
      roundtrip Codec.i64 Codec.read_i64 v = v)

let prop_codec_list_roundtrip =
  QCheck.Test.make ~name:"codec: int list roundtrip" ~count:200
    QCheck.(list small_nat)
    (fun l -> roundtrip (Codec.list Codec.u32) (Codec.read_list Codec.read_u32) l = l)

(* ---- Stats ---- *)

let test_stats_summary () =
  let s = Stats.summarize [| 1.; 2.; 3.; 4.; 5. |] in
  Alcotest.(check int) "count" 5 s.Stats.count;
  Alcotest.(check (float 1e-9)) "mean" 3.0 s.Stats.mean;
  Alcotest.(check (float 1e-9)) "min" 1.0 s.Stats.min;
  Alcotest.(check (float 1e-9)) "max" 5.0 s.Stats.max;
  Alcotest.(check (float 1e-9)) "p50" 3.0 s.Stats.p50

let test_stats_empty () =
  let s = Stats.summarize [||] in
  Alcotest.(check int) "count" 0 s.Stats.count

let suite =
  [
    ("rng deterministic", `Quick, test_rng_deterministic);
    ("rng seed sensitivity", `Quick, test_rng_seed_sensitivity);
    ("rng split independent", `Quick, test_rng_split_independent);
    ("rng int bounds", `Quick, test_rng_int_bounds);
    ("rng int_in_range", `Quick, test_rng_int_in_range);
    ("rng float bounds", `Quick, test_rng_float_bounds);
    ("rng chance extremes", `Quick, test_rng_chance_extremes);
    ("rng shuffle is a permutation", `Quick, test_rng_shuffle_permutation);
    ("rng pick member", `Quick, test_rng_pick_member);
    ("zipf bounds", `Quick, test_zipf_bounds);
    ("zipf skew", `Quick, test_zipf_skew);
    ("zipf theta=0 uniform", `Quick, test_zipf_uniform_when_theta_zero);
    ("heap basic", `Quick, test_heap_basic);
    ("heap growth and clear", `Quick, test_heap_growth_and_clear);
    ("heap empty raises", `Quick, test_heap_empty_raises);
    qcheck prop_heap_drains_sorted;
    ("crc32 known vector", `Quick, test_crc32_known_vector);
    ("crc32 empty", `Quick, test_crc32_empty);
    ("crc32 sensitivity", `Quick, test_crc32_sensitivity);
    ("crc32 slice", `Quick, test_crc32_slice);
    ("crc32 short unaligned slices", `Quick, test_crc32_short_unaligned_slices);
    qcheck prop_crc32_matches_reference;
    qcheck prop_crc32_chains;
    ("codec ints", `Quick, test_codec_ints);
    ("codec int boundaries", `Quick, test_codec_int_boundaries);
    ("codec bounded decoder", `Quick, test_codec_bounded_decoder);
    ("codec bytes/collections", `Quick, test_codec_bytes_and_collections);
    ("codec truncation detected", `Quick, test_codec_truncation_detected);
    qcheck prop_codec_string_roundtrip;
    qcheck prop_codec_i64_roundtrip;
    qcheck prop_codec_list_roundtrip;
    ("stats summary", `Quick, test_stats_summary);
    ("stats empty", `Quick, test_stats_empty);
  ]
