open Testlib
module J = Formats.Json

(* ---- JSON ---- *)

let test_json_parse_basics () =
  check_bool "null" true (J.parse "null" = J.Null);
  check_bool "true" true (J.parse "true" = J.Bool true);
  check_bool "number" true (J.parse "-12.5e2" = J.Number (-1250.0));
  check_bool "string" true (J.parse "\"hi\"" = J.String "hi");
  check_bool "empty array" true (J.parse "[]" = J.Array []);
  check_bool "empty object" true (J.parse "{}" = J.Object [])

let test_json_nested () =
  let v = J.parse {| {"user": "alice", "tweets": [{"id": 1, "text": "hi \"world\""}, {"id": 2}], "active": true} |} in
  (match J.member "tweets" v with
  | Some (J.Array [ first; _ ]) ->
    check_bool "nested member" true (J.member "text" first = Some (J.String "hi \"world\""))
  | _ -> Alcotest.fail "tweets array expected");
  check_bool "bool member" true (J.member "active" v = Some (J.Bool true));
  check_bool "missing member" true (J.member "nope" v = None)

let test_json_escapes () =
  check_bool "escape roundtrip" true
    (J.parse (J.to_string (J.String "line\nbreak\t\"quoted\" back\\slash"))
    = J.String "line\nbreak\t\"quoted\" back\\slash");
  check_bool "unicode escape" true (J.parse "\"\\u0041\\u00e9\"" = J.String "A\xc3\xa9")

let test_json_errors () =
  let bad s =
    match J.parse s with
    | exception J.Parse_error _ -> ()
    | _ -> Alcotest.fail ("should reject: " ^ s)
  in
  List.iter bad [ "{"; "[1,"; "\"unterminated"; "nul"; "{\"a\" 1}"; "[1] garbage"; "" ]

let test_json_multi_line () =
  let v = J.Object [ ("a", J.Array [ J.Number 1.0; J.Number 2.0 ]); ("b", J.Null) ] in
  check_bool "indented document parses" true
    (J.parse "{\n  \"a\": [\n    1,\n    2\n  ],\n  \"b\": null\n}" = v)

let prop_json_roundtrip =
  let rec gen_value depth =
    let open QCheck.Gen in
    if depth = 0 then
      oneof
        [ return J.Null; map (fun b -> J.Bool b) bool;
          map (fun n -> J.Number (float_of_int n)) (int_range (-1000) 1000);
          map (fun s -> J.String s) (string_size ~gen:printable (int_range 0 15)) ]
    else
      frequency
        [ (2, gen_value 0);
          (1, map (fun l -> J.Array l) (list_size (int_range 0 4) (gen_value (depth - 1))));
          (1, map (fun l -> J.Object (List.mapi (fun i (_, v) -> ("k" ^ string_of_int i, v)) l))
               (list_size (int_range 0 4) (pair unit (gen_value (depth - 1))))) ]
  in
  qtest ~count:200 "json print/parse roundtrip" (QCheck.make (gen_value 3)) (fun v ->
      J.parse (J.to_string v) = v)

let () =
  Alcotest.run "formats"
    [
      ( "json",
        [
          Alcotest.test_case "basics" `Quick test_json_parse_basics;
          Alcotest.test_case "nested" `Quick test_json_nested;
          Alcotest.test_case "escapes" `Quick test_json_escapes;
          Alcotest.test_case "errors" `Quick test_json_errors;
          Alcotest.test_case "multi-line documents parse" `Quick test_json_multi_line;
          prop_json_roundtrip;
        ] );
    ]
