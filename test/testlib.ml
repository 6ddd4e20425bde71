(* Shared fixtures for the integration tests. *)

let check = Alcotest.check
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* Test worlds and hosts are [Core.World]'s: its records, [run] and
   [static_ip] are in scope wherever this module is opened. *)
include Core.World

let bs = Bytestruct.of_string

let pattern = Scenario.pattern

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* The pinned capture scenario (shared with test/golden/gen_capture.exe). *)
module Capture_scenario = Capture_scenario
module Tcp_paths_scenario = Tcp_paths_scenario
