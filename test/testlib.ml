(* Shared fixtures for the integration tests. *)

let check = Alcotest.check
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* Test worlds and hosts are [Core.World]'s: its records, [run] and
   [static_ip] are in scope wherever this module is opened. *)
include Core.World

let bs = Bytestruct.of_string

(* Deterministic pseudo-random payload. *)
let pattern n =
  String.init n (fun i -> Char.chr ((i * 131 + i / 251) land 0xff))

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* The pinned capture scenario (shared with test/golden/gen_capture.exe). *)
module Capture_scenario = Capture_scenario
module Tcp_paths_scenario = Tcp_paths_scenario

(* The chaos matrix's fault schedules, shared by test_chaos (pinned
   seeds) and `bench chaos` (the full sweep). Each builds its faults
   relative to [now]: link flaps are anchored in absolute sim time. *)
let chaos_schedules : (string * (now:int -> Netsim.Faults.t)) list =
  let module F = Netsim.Faults in
  let ms = Engine.Sim.ms in
  [
    ("burst-loss-2pct", fun ~now:_ -> F.make ~ge:(F.burst_loss ~avg_loss:0.02 ~burst_len:5 ()) ());
    ("reorder-15pct", fun ~now:_ -> F.make ~reorder:(0.15, 300_000) ());
    ("duplicate-5pct", fun ~now:_ -> F.make ~duplicate:0.05 ());
    ("corrupt-3pct", fun ~now:_ -> F.make ~corrupt:0.03 ());
    ("jitter-200us", fun ~now:_ -> F.make ~jitter_ns:200_000 ());
    (* The first outage must land inside the transfer (~2 ms clean),
       hence the early anchor. *)
    ("link-flap", fun ~now -> F.make ~flap:(now + 500_000, ms 40, ms 200) ());
    ( "everything",
      fun ~now ->
        F.make
          ~ge:(F.burst_loss ~avg_loss:0.01 ~burst_len:4 ())
          ~reorder:(0.05, 200_000) ~duplicate:0.02 ~corrupt:0.01 ~jitter_ns:100_000
          ~flap:(now + ms 20, ms 20, ms 400) () );
  ]
