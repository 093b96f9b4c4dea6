(* Tests for the util library: RNG determinism, codec round-trips, CRC-32
   known-answer values, statistics, table rendering, heap order and
   retention. *)

open Util

let check = Alcotest.check
let qtest ?(count = 200) name arb law = QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb law)

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_deterministic () =
  let a = Rng.create 42L and b = Rng.create 42L in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Rng.next_int64 a) (Rng.next_int64 b)
  done

let test_rng_copy () =
  let a = Rng.create 7L in
  ignore (Rng.next_int64 a);
  let b = Rng.copy a in
  check Alcotest.int64 "copy continues identically" (Rng.next_int64 a) (Rng.next_int64 b)

let test_rng_split_independent () =
  let a = Rng.create 1L in
  let b = Rng.split a in
  let xs = List.init 32 (fun _ -> Rng.next_int64 a) in
  let ys = List.init 32 (fun _ -> Rng.next_int64 b) in
  Alcotest.(check bool) "streams differ" true (xs <> ys)

let test_rng_int_bounds () =
  let t = Rng.create 99L in
  for _ = 1 to 10_000 do
    let v = Rng.int t 17 in
    if v < 0 || v >= 17 then Alcotest.failf "out of bounds: %d" v
  done

let test_rng_int_in () =
  let t = Rng.create 5L in
  for _ = 1 to 1000 do
    let v = Rng.int_in t (-3) 4 in
    if v < -3 || v > 4 then Alcotest.failf "out of range: %d" v
  done

let test_rng_float_bounds () =
  let t = Rng.create 11L in
  for _ = 1 to 10_000 do
    let v = Rng.float t 2.5 in
    if v < 0. || v >= 2.5 then Alcotest.failf "out of bounds: %f" v
  done

let test_rng_gaussian_moments () =
  let t = Rng.create 3L in
  let s = Stats.create () in
  for _ = 1 to 20_000 do
    Stats.add s (Rng.gaussian t ~mean:10. ~stddev:2.)
  done;
  Alcotest.(check bool) "mean near 10" true (abs_float (Stats.mean s -. 10.) < 0.1);
  Alcotest.(check bool) "stddev near 2" true (abs_float (Stats.stddev s -. 2.) < 0.1)

let test_rng_bytes_len () =
  let t = Rng.create 8L in
  List.iter (fun n -> check Alcotest.int "length" n (Bytes.length (Rng.bytes t n))) [ 0; 1; 7; 8; 9; 4096 ]

let test_rng_shuffle_permutation () =
  let t = Rng.create 21L in
  let arr = Array.init 50 Fun.id in
  Rng.shuffle t arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  check Alcotest.(array int) "is a permutation" (Array.init 50 Fun.id) sorted

let test_rng_exponential_positive () =
  let t = Rng.create 13L in
  for _ = 1 to 1000 do
    if Rng.exponential t ~mean:0.5 < 0. then Alcotest.fail "negative exponential sample"
  done

(* ------------------------------------------------------------------ *)
(* Codec *)

let test_codec_primitives () =
  let w = Codec.Writer.create () in
  Codec.Writer.u8 w 200;
  Codec.Writer.u16 w 65535;
  Codec.Writer.u32 w 123456789;
  Codec.Writer.i64 w (-42L);
  Codec.Writer.f64 w 3.14159;
  Codec.Writer.bool w true;
  Codec.Writer.string w "hello";
  let r = Codec.Reader.of_string (Codec.Writer.contents w) in
  check Alcotest.int "u8" 200 (Codec.Reader.u8 r);
  check Alcotest.int "u16" 65535 (Codec.Reader.u16 r);
  check Alcotest.int "u32" 123456789 (Codec.Reader.u32 r);
  check Alcotest.int64 "i64" (-42L) (Codec.Reader.i64 r);
  check (Alcotest.float 1e-12) "f64" 3.14159 (Codec.Reader.f64 r);
  check Alcotest.bool "bool" true (Codec.Reader.bool r);
  check Alcotest.string "string" "hello" (Codec.Reader.string r);
  Codec.Reader.expect_end r

let test_codec_truncated () =
  let w = Codec.Writer.create () in
  Codec.Writer.u32 w 7;
  let s = Codec.Writer.contents w in
  let r = Codec.Reader.of_string (String.sub s 0 2) in
  Alcotest.check_raises "truncated" (Codec.Reader.Corrupt "truncated input (need 1 bytes, have 0)")
    (fun () -> ignore (Codec.Reader.u32 r))

let test_codec_trailing () =
  let r = Codec.Reader.of_string "xy" in
  ignore (Codec.Reader.u8 r);
  Alcotest.check_raises "trailing" (Codec.Reader.Corrupt "1 trailing bytes") (fun () ->
      Codec.Reader.expect_end r)

let test_codec_uvarint_negative () =
  let w = Codec.Writer.create () in
  Alcotest.check_raises "negative uvarint" (Invalid_argument "Codec.Writer.uvarint: negative")
    (fun () -> Codec.Writer.uvarint w (-1))

(* [prefixed] frames a body exactly as [string] frames the same bytes,
   also where the length needs a second or third uvarint byte and the
   body has to move up *)
let test_codec_prefixed () =
  List.iter
    (fun n ->
      let body = String.init n (fun i -> Char.chr (i land 0xff)) in
      let via enc =
        let w = Codec.Writer.create ~capacity:16 () in
        Codec.Writer.u8 w 0xAB;
        enc w;
        Codec.Writer.u8 w 0xCD;
        Codec.Writer.contents w
      in
      check Alcotest.string (Printf.sprintf "%d-byte body" n)
        (via (fun w -> Codec.Writer.string w body))
        (via (fun w -> Codec.Writer.prefixed Codec.Writer.raw w body)))
    [ 0; 1; 127; 128; 300; 16383; 16384; 70000 ]

let test_codec_sub () =
  let r = Codec.Reader.of_string "abcdef" in
  ignore (Codec.Reader.u8 r);
  let sub = Codec.Reader.sub r 3 in
  check Alcotest.string "sub reads its bytes" "bc" (Codec.Reader.raw sub 2);
  Alcotest.check_raises "sub stops at its bound"
    (Codec.Reader.Corrupt "truncated input (need 2 bytes, have 1)") (fun () ->
      ignore (Codec.Reader.raw sub 2));
  check Alcotest.string "parent skips the sub's bytes" "ef" (Codec.Reader.raw r 2);
  Alcotest.check_raises "sub past the end" (Codec.Reader.Corrupt "truncated input (need 1 bytes, have 0)")
    (fun () -> ignore (Codec.Reader.sub r 1));
  (* a 9-byte uvarint decodes to a negative int *)
  let r = Codec.Reader.of_string (String.make 8 '\xff' ^ "\x7fxyz") in
  let n = Codec.Reader.uvarint r in
  Alcotest.check_raises "negative sub length" (Codec.Reader.Corrupt "negative length -1") (fun () ->
      ignore (Codec.Reader.sub r n));
  Alcotest.check_raises "negative raw length" (Codec.Reader.Corrupt "negative length -1") (fun () ->
      ignore (Codec.Reader.raw r n))

let test_codec_containers () =
  let c = Codec.(triple varint (list string) (option f64)) in
  let v = (-77, [ "a"; ""; "xyz" ], Some 2.5) in
  let v' = Codec.roundtrip c v in
  Alcotest.(check bool) "containers round-trip" true (v = v')

let prop_varint_roundtrip =
  qtest "varint round-trip" QCheck.(int) (fun v -> Codec.roundtrip Codec.varint v = v)

let prop_uvarint_roundtrip =
  qtest "uvarint round-trip"
    QCheck.(map abs int)
    (fun v -> Codec.roundtrip Codec.uvarint v = v)

let prop_string_roundtrip =
  qtest "string round-trip" QCheck.(string) (fun s -> Codec.roundtrip Codec.string s = s)

let prop_f64_roundtrip =
  qtest "f64 round-trip" QCheck.(float) (fun v ->
      let v' = Codec.roundtrip Codec.f64 v in
      Int64.bits_of_float v = Int64.bits_of_float v')

(* One record and one variant, each described once with the
   combinators and once as a hand-written [Writer] reference. *)
type rec_t = { a : int; b : string; c : float option; d : int list }

let rec_codec =
  Codec.(
    record (fun a b c d -> { a; b; c; d })
    |> field varint (fun r -> r.a)
    |> field string (fun r -> r.b)
    |> field (option f64) (fun r -> r.c)
    |> field (list uvarint) (fun r -> r.d)
    |> seal)

let rec_reference w r =
  Codec.Writer.varint w r.a;
  Codec.Writer.string w r.b;
  Codec.Writer.option Codec.Writer.f64 w r.c;
  Codec.Writer.list Codec.Writer.uvarint w r.d

type var_t =
  | Empty
  | One of int
  | Two of string * bool
  | Three of int * int * string
  | Five of { p : int; q : string; r : bool; s : int64; t : rec_t }

let var_codec =
  Codec.(
    variant "test" (fun empty one two three five w -> function
      | Empty -> empty w
      | One n -> one w n
      | Two (s, b) -> two w s b
      | Three (x, y, z) -> three w x y z
      | Five { p; q; r; s; t } -> five w p q r s t)
    |> case 0 [] Empty
    |> case 1 [ varint ] (fun n -> One n)
    |> case 7 [ string; bool ] (fun s b -> Two (s, b))
    |> case 3 [ uvarint; varint; string ] (fun x y z -> Three (x, y, z))
    |> case 200 [ uvarint; string; bool; i64; rec_codec ] (fun p q r s t -> Five { p; q; r; s; t })
    |> sealv)

let var_reference w = function
  | Empty -> Codec.Writer.u8 w 0
  | One n ->
    Codec.Writer.u8 w 1;
    Codec.Writer.varint w n
  | Two (s, b) ->
    Codec.Writer.u8 w 7;
    Codec.Writer.string w s;
    Codec.Writer.bool w b
  | Three (x, y, z) ->
    Codec.Writer.u8 w 3;
    Codec.Writer.uvarint w x;
    Codec.Writer.varint w y;
    Codec.Writer.string w z
  | Five { p; q; r; s; t } ->
    Codec.Writer.u8 w 200;
    Codec.Writer.uvarint w p;
    Codec.Writer.string w q;
    Codec.Writer.bool w r;
    Codec.Writer.i64 w s;
    rec_reference w t

let reference_bytes wr v =
  let w = Codec.Writer.create () in
  wr w v;
  Codec.Writer.contents w

let rec_gen =
  QCheck.Gen.(
    map
      (fun (a, b, c, d) -> { a; b; c; d })
      (quad int string_printable
         (opt (float_bound_inclusive 1e6))
         (small_list (map abs small_int))))

let var_gen =
  QCheck.Gen.(
    oneof
      [
        return Empty;
        map (fun n -> One n) int;
        map2 (fun s b -> Two (s, b)) string_printable bool;
        map3 (fun x y z -> Three (x, y, z)) (map abs int) int string_printable;
        map3
          (fun (p, q) (r, s) t -> Five { p; q; r; s; t })
          (pair (map abs small_int) string_printable)
          (pair bool (map Int64.of_int int))
          rec_gen;
      ])

let prop_record_roundtrip =
  qtest "record round-trip, reference bytes" (QCheck.make rec_gen) (fun r ->
      let bytes = Codec.to_string rec_codec r in
      bytes = reference_bytes rec_reference r && Codec.of_string rec_codec bytes = r)

let prop_variant_roundtrip =
  qtest "variant round-trip, reference bytes" (QCheck.make var_gen) (fun v ->
      let bytes = Codec.to_string var_codec v in
      bytes = reference_bytes var_reference v && Codec.of_string var_codec bytes = v)

let prop_map_roundtrip =
  let c =
    Codec.(map (pair uvarint string) (fun (n, s) -> String.make n 'x' ^ s) (fun s -> (0, s)))
  in
  qtest "map round-trip" QCheck.(string) (fun s ->
      Codec.to_string c s = reference_bytes Codec.Writer.(pair uvarint string) (0, s)
      && Codec.roundtrip c s = s)

let test_codec_bad_tag () =
  Alcotest.check_raises "unknown tag" (Codec.Reader.Corrupt "bad test tag 2") (fun () ->
      ignore (Codec.of_string var_codec "\002"))

let test_codec_array_count () =
  (* a count of 2^45 elements with one byte behind it: refused before
     anything is allocated for it *)
  let w = Codec.Writer.create () in
  Codec.Writer.uvarint w (1 lsl 45);
  Codec.Writer.u8 w 0;
  let r = Codec.Reader.of_string (Codec.Writer.contents w) in
  Alcotest.check_raises "huge count"
    (Codec.Reader.Corrupt (Printf.sprintf "array count %d exceeds the 1 bytes left" (1 lsl 45)))
    (fun () -> ignore (Codec.Reader.array Codec.Reader.u8 r))

(* ------------------------------------------------------------------ *)
(* Crc32 *)

let test_crc32_known_answers () =
  (* Standard CRC-32 check values. *)
  check Alcotest.int32 "empty" 0l (Crc32.digest "");
  check Alcotest.int32 "123456789" 0xCBF43926l (Crc32.digest "123456789");
  check Alcotest.int32 "a" 0xE8B7BE43l (Crc32.digest "a")

let test_crc32_incremental () =
  let s = "the quick brown fox jumps over the lazy dog" in
  let one_shot = Crc32.digest s in
  let acc = Crc32.update Crc32.init s 0 10 in
  let acc = Crc32.update acc s 10 (String.length s - 10) in
  check Alcotest.int32 "incremental equals one-shot" one_shot (Crc32.finish acc)

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_stats_basic () =
  let s = Stats.of_list [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ] in
  check Alcotest.int "count" 8 (Stats.count s);
  check (Alcotest.float 1e-9) "mean" 5.0 (Stats.mean s);
  check (Alcotest.float 1e-6) "stddev (sample)" 2.13809 (Stats.stddev s);
  check (Alcotest.float 1e-9) "min" 2.0 (Stats.min s);
  check (Alcotest.float 1e-9) "max" 9.0 (Stats.max s)

let test_stats_empty () =
  let s = Stats.create () in
  check (Alcotest.float 0.) "mean of empty" 0. (Stats.mean s);
  check (Alcotest.float 0.) "stddev of empty" 0. (Stats.stddev s)

let test_stats_single () =
  let s = Stats.of_list [ 3.5 ] in
  check (Alcotest.float 0.) "stddev of singleton" 0. (Stats.stddev s);
  check (Alcotest.float 0.) "mean of singleton" 3.5 (Stats.mean s)

(* ------------------------------------------------------------------ *)
(* Table *)

let test_table_render () =
  let s = Table.render ~header:[ "name"; "value" ] [ [ "a"; "1" ]; [ "bcd"; "22" ] ] in
  Alcotest.(check bool) "contains header" true (String.length s > 0);
  let lines = String.split_on_char '\n' s in
  check Alcotest.int "line count" 5 (List.length lines)

let test_bar_chart_nonempty () =
  let series =
    [ { Table.series_name = "ckpt"; points = [ ("app1", 1.0); ("app2", 2.0) ] };
      { Table.series_name = "restart"; points = [ ("app1", 0.5); ("app2", 1.5) ] } ]
  in
  let s = Table.bar_chart ~title:"t" ~unit_label:"s" series in
  Alcotest.(check bool) "mentions app2" true
    (String.length s > 0
    &&
    let re_found = ref false in
    String.split_on_char '\n' s |> List.iter (fun l -> if String.length l >= 4 && String.sub l 0 4 = "app2" then re_found := true);
    !re_found)

let test_units () =
  check Alcotest.string "bytes" "512 B" (Units.pp_bytes 512);
  check Alcotest.string "mb" "225.0 MB" (Units.pp_mb (225 * Units.mb));
  check Alcotest.string "seconds" "2.000 s" (Units.pp_seconds 2.0);
  check Alcotest.string "millis" "1.500 ms" (Units.pp_seconds 0.0015)

(* ------------------------------------------------------------------ *)
(* Heap *)

(* Heap property test: popping returns priorities in nondecreasing order. *)
let prop_heap_sorted =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300 ~name:"heap pops sorted"
       QCheck.(list (float_bound_exclusive 1000.))
       (fun priorities ->
         let h = Heap.create () in
         List.iteri (fun i p -> Heap.push h ~priority:p i) priorities;
         let rec drain acc =
           match Heap.pop h with
           | None -> List.rev acc
           | Some (p, _) -> drain (p :: acc)
         in
         let popped = drain [] in
         popped = List.sort compare priorities))

let prop_heap_fifo_ties =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:100 ~name:"heap preserves FIFO among ties"
       QCheck.(int_bound 50)
       (fun n ->
         let h = Heap.create () in
         for i = 0 to n do
           Heap.push h ~priority:1.0 i
         done;
         let rec drain acc =
           match Heap.pop h with
           | None -> List.rev acc
           | Some (_, v) -> drain (v :: acc)
         in
         drain [] = List.init (n + 1) Fun.id))


(* [min_priority] then [take] is [pop]: over any interleaving of pushes
   and removals, with priorities drawn from few values so ties are
   common, both heaps hand back the same (priority, value) sequence. *)
let prop_heap_take_is_pop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300 ~name:"take follows pop order"
       QCheck.(list (option (int_bound 4)))
       (fun ops ->
         let a = Heap.create () and b = Heap.create () in
         let take_one () =
           let p = Heap.min_priority b in
           (p, Heap.take b)
         in
         let same = ref true in
         List.iteri
           (fun i op ->
             match op with
             | Some p ->
               Heap.push a ~priority:(float_of_int p) i;
               Heap.push b ~priority:(float_of_int p) i
             | None -> (
               match Heap.pop a with
               | None -> same := !same && Heap.is_empty b
               | Some e -> same := !same && e = take_one ()))
           ops;
         while not (Heap.is_empty a) do
           same := !same && Option.get (Heap.pop a) = take_one ()
         done;
         !same && Heap.is_empty b))

let test_heap_take_empty () =
  let h : int Heap.t = Heap.create () in
  Alcotest.check_raises "min_priority" (Invalid_argument "Heap.min_priority: empty heap") (fun () ->
      ignore (Heap.min_priority h));
  Alcotest.check_raises "take" (Invalid_argument "Heap.take: empty heap") (fun () -> ignore (Heap.take h))

(* Retention: a popped value must not stay reachable from the heap's
   backing array.  Track every pushed value weakly, pop them all and run
   a full major GC while the (now empty) heap is still live. *)
let test_heap_pop_releases () =
  let n = 100 in
  let h = Heap.create () in
  let pushed = Weak.create n in
  for i = 0 to n - 1 do
    let v = ref i in
    Weak.set pushed i (Some v);
    Heap.push h ~priority:(float_of_int (i mod 7)) v
  done;
  for _ = 1 to n do
    ignore (Heap.pop h)
  done;
  Gc.full_major ();
  let survivors = List.filter (Weak.check pushed) (List.init n Fun.id) in
  check Alcotest.(list int) "no popped value survives" [] survivors;
  check Alcotest.bool "heap drained" true (Heap.is_empty h)

let () =
  Alcotest.run "util"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "copy" `Quick test_rng_copy;
          Alcotest.test_case "split independent" `Quick test_rng_split_independent;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int_in range" `Quick test_rng_int_in;
          Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
          Alcotest.test_case "gaussian moments" `Quick test_rng_gaussian_moments;
          Alcotest.test_case "bytes length" `Quick test_rng_bytes_len;
          Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "exponential positive" `Quick test_rng_exponential_positive;
        ] );
      ( "codec",
        [
          Alcotest.test_case "primitives" `Quick test_codec_primitives;
          Alcotest.test_case "truncated input" `Quick test_codec_truncated;
          Alcotest.test_case "trailing bytes" `Quick test_codec_trailing;
          Alcotest.test_case "negative uvarint" `Quick test_codec_uvarint_negative;
          Alcotest.test_case "containers" `Quick test_codec_containers;
          Alcotest.test_case "prefixed framing" `Quick test_codec_prefixed;
          Alcotest.test_case "sub reader bounds" `Quick test_codec_sub;
          prop_varint_roundtrip;
          prop_uvarint_roundtrip;
          prop_string_roundtrip;
          prop_f64_roundtrip;
          prop_record_roundtrip;
          prop_variant_roundtrip;
          prop_map_roundtrip;
          Alcotest.test_case "unknown variant tag" `Quick test_codec_bad_tag;
          Alcotest.test_case "array count bound" `Quick test_codec_array_count;
        ] );
      ( "crc32",
        [
          Alcotest.test_case "known answers" `Quick test_crc32_known_answers;
          Alcotest.test_case "incremental" `Quick test_crc32_incremental;
        ] );
      ( "stats",
        [
          Alcotest.test_case "basic" `Quick test_stats_basic;
          Alcotest.test_case "empty" `Quick test_stats_empty;
          Alcotest.test_case "single" `Quick test_stats_single;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "bar chart" `Quick test_bar_chart_nonempty;
          Alcotest.test_case "units" `Quick test_units;
        ] );
      ( "heap",
        [
          prop_heap_sorted;
          prop_heap_fifo_ties;
          prop_heap_take_is_pop;
          Alcotest.test_case "take on empty heap" `Quick test_heap_take_empty;
          Alcotest.test_case "popped values are released" `Quick test_heap_pop_releases;
        ] );
    ]
