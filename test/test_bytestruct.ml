open Testlib

let test_create_zeroed () =
  let b = Bytestruct.create 16 in
  check_int "length" 16 (Bytestruct.length b);
  for i = 0 to 15 do
    check_int "zeroed" 0 (Bytestruct.get_uint8 b i)
  done

let test_of_to_string () =
  let b = bs "hello world" in
  check_string "roundtrip" "hello world" (Bytestruct.to_string b);
  check_int "length" 11 (Bytestruct.length b)

let test_views_alias_storage () =
  let b = bs "abcdefgh" in
  let v = Bytestruct.sub b 2 4 in
  check_string "view contents" "cdef" (Bytestruct.to_string v);
  Bytestruct.set_uint8 v 0 (Char.code 'X');
  check_string "writes visible through parent" "abXdefgh" (Bytestruct.to_string b);
  Bytestruct.set_uint8 (Bytestruct.copy v) 1 (Char.code 'Y');
  check_string "copy does not alias" "abXdefgh" (Bytestruct.to_string b)

let test_shift_split () =
  let b = bs "0123456789" in
  check_string "shift" "56789" (Bytestruct.to_string (Bytestruct.shift b 5));
  let l, r = Bytestruct.split b 3 in
  check_string "split left" "012" (Bytestruct.to_string l);
  check_string "split right" "3456789" (Bytestruct.to_string r)

let test_bounds_checks () =
  let b = bs "abc" in
  let expect_invalid f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  expect_invalid (fun () -> Bytestruct.get_uint8 b 3);
  expect_invalid (fun () -> Bytestruct.get_uint8 b (-1));
  expect_invalid (fun () -> Bytestruct.BE.get_uint16 b 2);
  expect_invalid (fun () -> Bytestruct.BE.get_uint32 b 0);
  expect_invalid (fun () -> Bytestruct.sub b 1 3);
  expect_invalid (fun () -> Bytestruct.shift b 4);
  expect_invalid (fun () -> Bytestruct.set_string b 1 "toolong")

let test_view_cannot_escape () =
  let b = bs "abcdefgh" in
  let v = Bytestruct.sub b 2 3 in
  match Bytestruct.get_uint8 v 3 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "view leaked past its bounds"

let test_be_accessors () =
  let b = Bytestruct.create 8 in
  Bytestruct.BE.set_uint16 b 0 0xBEEF;
  check_int "u16" 0xBEEF (Bytestruct.BE.get_uint16 b 0);
  check_int "byte order" 0xBE (Bytestruct.get_uint8 b 0);
  Bytestruct.BE.set_uint32 b 0 0xDEADBEEFl;
  Alcotest.(check int32) "u32" 0xDEADBEEFl (Bytestruct.BE.get_uint32 b 0);
  check_int "big end first" 0xDE (Bytestruct.get_uint8 b 0)

let test_le_accessors () =
  let b = Bytestruct.create 8 in
  Bytestruct.LE.set_uint16 b 0 0xBEEF;
  check_int "u16" 0xBEEF (Bytestruct.LE.get_uint16 b 0);
  check_int "little end first" 0xEF (Bytestruct.get_uint8 b 0);
  Bytestruct.LE.set_uint32 b 2 0x11223344l;
  check_int "u32" 0x11223344 (Bytestruct.LE.get_uint32_int b 2);
  Bytestruct.LE.set_uint64 b 0 0x0102030405060708L;
  Alcotest.(check int64) "u64" 0x0102030405060708L (Bytestruct.LE.get_uint64 b 0)

let test_uint8_masking () =
  let b = Bytestruct.create 1 in
  Bytestruct.set_uint8 b 0 0x1FF;
  check_int "masked to byte" 0xFF (Bytestruct.get_uint8 b 0)

let test_blit () =
  let src = bs "HELLO" in
  let dst = bs "xxxxxxxxxx" in
  Bytestruct.blit src 1 dst 2 3;
  check_string "blit" "xxELLxxxxx" (Bytestruct.to_string dst)

let test_fill () =
  let b = bs "abcdef" in
  Bytestruct.fill (Bytestruct.sub b 2 2) '.';
  check_string "partial fill through view" "ab..ef" (Bytestruct.to_string b)

let test_lenv () =
  check_int "lenv" 6 (Bytestruct.lenv [ bs "ab"; bs ""; bs "cde"; bs "f" ]);
  check_int "empty lenv" 0 (Bytestruct.lenv [])

let test_equal_compare () =
  check_bool "equal by contents" true (Bytestruct.equal (bs "abc") (bs "abc"));
  check_bool "unequal" false (Bytestruct.equal (bs "abc") (bs "abd"));
  check_bool "compare" true (Bytestruct.compare (bs "abc") (bs "abd") < 0);
  let parent = bs "xabcabc" in
  check_bool "views equal" true
    (Bytestruct.equal (Bytestruct.sub parent 1 3) (Bytestruct.sub parent 4 3))

(* The receive path checks every payload byte with [equal]: it must not
   allocate, not even a closure per call. *)
let test_equal_compare_allocate_nothing () =
  let a = Bytestruct.sub (bs (String.make 90 'x')) 3 80
  and b = Bytestruct.sub (bs (String.make 90 'x')) 1 80 in
  let w0 = Gc.minor_words () in
  for _ = 1 to 1000 do
    ignore (Sys.opaque_identity (Bytestruct.equal a b));
    ignore (Sys.opaque_identity (Bytestruct.compare a b))
  done;
  let words = Gc.minor_words () -. w0 in
  if words > 16. then Alcotest.failf "1000 equal+compare pairs allocated %.0f words" words

(* The int-valued u32 accessors: full unsigned range at unaligned
   offsets, the same bytes as the int32 accessors, the same bounds
   errors, and no allocation. *)
let test_uint32_int () =
  let b = Bytestruct.sub (Bytestruct.create 16) 1 12 in
  List.iter
    (fun v ->
      List.iter
        (fun off ->
          Bytestruct.LE.set_uint32_int b off v;
          check_int (Printf.sprintf "LE %d at %d" v off) v (Bytestruct.LE.get_uint32_int b off);
          Bytestruct.LE.set_uint32 b off (Int32.of_int v);
          check_int "LE same bytes as int32" v (Bytestruct.LE.get_uint32_int b off);
          Bytestruct.BE.set_uint32_int b off v;
          check_int (Printf.sprintf "BE %d at %d" v off) v (Bytestruct.BE.get_uint32_int b off);
          Alcotest.(check int32) "BE same bytes as int32" (Int32.of_int v)
            (Bytestruct.BE.get_uint32 b off))
        [ 0; 1; 3; 5; 8 ])
    [ 0; 1 lsl 31; (1 lsl 32) - 1 ];
  Bytestruct.LE.set_uint32_int b 0 0x01020304;
  check_int "little-endian byte order" 0x04 (Bytestruct.get_uint8 b 0);
  Bytestruct.BE.set_uint32_int b 0 0x01020304;
  check_int "big-endian byte order" 0x01 (Bytestruct.get_uint8 b 0);
  let raises name f =
    let expected =
      match f `Int32 with
      | () -> Alcotest.failf "%s: int32 accessor did not raise" name
      | exception Invalid_argument m -> m
    in
    Alcotest.check_raises name (Invalid_argument expected) (fun () -> f `Int)
  in
  List.iter
    (fun off ->
      (* No boxed LE getter: the int32 setter's bounds error is the reference. *)
      raises (Printf.sprintf "LE get at %d" off) (function
        | `Int32 -> Bytestruct.LE.set_uint32 b off 0l
        | `Int -> ignore (Bytestruct.LE.get_uint32_int b off));
      raises (Printf.sprintf "LE set at %d" off) (function
        | `Int32 -> Bytestruct.LE.set_uint32 b off 0l
        | `Int -> Bytestruct.LE.set_uint32_int b off 0);
      raises (Printf.sprintf "BE get at %d" off) (function
        | `Int32 -> ignore (Bytestruct.BE.get_uint32 b off)
        | `Int -> ignore (Bytestruct.BE.get_uint32_int b off));
      raises (Printf.sprintf "BE set at %d" off) (function
        | `Int32 -> Bytestruct.BE.set_uint32 b off 0l
        | `Int -> Bytestruct.BE.set_uint32_int b off 0))
    [ -1; 9; 12 ];
  let w0 = Gc.minor_words () in
  for i = 1 to 1000 do
    Bytestruct.LE.set_uint32_int b 5 (Sys.opaque_identity i);
    ignore (Sys.opaque_identity (Bytestruct.LE.get_uint32_int b 5))
  done;
  let words = Gc.minor_words () -. w0 in
  if words <> 0. then Alcotest.failf "1000 get/set pairs allocated %.0f words" words

let test_get_set_string () =
  let b = Bytestruct.create 10 in
  Bytestruct.set_string b 2 "hey";
  check_string "get_string" "hey" (Bytestruct.get_string b 2 3)

let prop_sub_shift_consistent =
  qtest "sub consistent with String.sub"
    QCheck.(pair (string_of_size (QCheck.Gen.int_range 1 200)) (pair small_nat small_nat))
    (fun (s, (a, b)) ->
      let len = String.length s in
      let off = a mod (len + 1) in
      let sub_len = b mod (len - off + 1) in
      let v = Bytestruct.sub (Bytestruct.of_string s) off sub_len in
      Bytestruct.to_string v = String.sub s off sub_len)

let prop_be_u16_roundtrip =
  qtest "BE u16 roundtrip" QCheck.(int_bound 0xffff) (fun v ->
      let b = Bytestruct.create 2 in
      Bytestruct.BE.set_uint16 b 0 v;
      Bytestruct.BE.get_uint16 b 0 = v)

let prop_le_u32_roundtrip =
  qtest "LE u32 roundtrip" QCheck.(map Int32.of_int int) (fun v ->
      let b = Bytestruct.create 4 in
      Bytestruct.LE.set_uint32 b 0 v;
      Bytestruct.LE.get_uint32_int b 0 = Int32.to_int v land 0xFFFF_FFFF)

let prop_concat_split =
  qtest "concat of split is identity"
    QCheck.(pair (string_of_size (QCheck.Gen.int_range 1 100)) small_nat)
    (fun (s, n) ->
      let b = Bytestruct.of_string s in
      let k = n mod (String.length s + 1) in
      let l, r = Bytestruct.split b k in
      Bytestruct.to_string l ^ Bytestruct.to_string r = s)

(* [equal]/[compare] skip the common prefix a 64-bit word at a time:
   check them against [String] on views at every alignment, for every
   length around the word boundaries, with a single differing byte at
   each position and against every prefix. *)
let prop_equal_compare_match_string =
  let sign x = Stdlib.compare x 0 in
  qtest ~count:200 "equal/compare match String on unaligned views"
    QCheck.(
      triple
        (string_of_size (QCheck.Gen.int_range 0 80))
        (pair (int_bound 7) (int_bound 7))
        (int_range 1 255))
    (fun (s, (oa, ob), delta) ->
      let view off s =
        let b = Bytestruct.create (off + String.length s + 3) in
        Bytestruct.set_string b off s;
        Bytestruct.sub b off (String.length s)
      in
      let agrees x y =
        let vx = view oa x and vy = view ob y in
        Bytestruct.equal vx vy = String.equal x y
        && sign (Bytestruct.compare vx vy) = sign (String.compare x y)
        && sign (Bytestruct.compare vy vx) = sign (String.compare y x)
      in
      let n = String.length s in
      agrees s s
      && List.for_all
           (fun p ->
             let t = Bytes.of_string s in
             Bytes.set t p (Char.chr ((Char.code s.[p] + delta) land 0xff));
             agrees s (Bytes.to_string t))
           (List.init n Fun.id)
      && List.for_all (fun k -> agrees s (String.sub s 0 k)) (List.init (n + 1) Fun.id))

let () =
  Alcotest.run "bytestruct"
    [
      ( "views",
        [
          Alcotest.test_case "create zeroed" `Quick test_create_zeroed;
          Alcotest.test_case "of/to string" `Quick test_of_to_string;
          Alcotest.test_case "views alias storage" `Quick test_views_alias_storage;
          Alcotest.test_case "shift and split" `Quick test_shift_split;
          Alcotest.test_case "bounds checks" `Quick test_bounds_checks;
          Alcotest.test_case "view cannot escape" `Quick test_view_cannot_escape;
        ] );
      ( "accessors",
        [
          Alcotest.test_case "big endian" `Quick test_be_accessors;
          Alcotest.test_case "little endian" `Quick test_le_accessors;
          Alcotest.test_case "uint8 masking" `Quick test_uint8_masking;
          Alcotest.test_case "blit" `Quick test_blit;
          Alcotest.test_case "fill" `Quick test_fill;
          Alcotest.test_case "lenv" `Quick test_lenv;
          Alcotest.test_case "equal/compare" `Quick test_equal_compare;
          Alcotest.test_case "equal/compare allocate nothing" `Quick
            test_equal_compare_allocate_nothing;
          Alcotest.test_case "u32 as int: round trip, bounds, no allocation" `Quick
            test_uint32_int;
          Alcotest.test_case "string get/set" `Quick test_get_set_string;
        ] );
      ( "properties",
        [
          prop_sub_shift_consistent;
          prop_be_u16_roundtrip;
          prop_le_u32_roundtrip;
          prop_concat_split;
          prop_equal_compare_match_string;
        ] );
    ]
