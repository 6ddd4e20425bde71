(* Chaos matrix, fast subset: Fig-8-style bulk transfers under composed
   fault schedules × pinned PRNG seeds. Every run must terminate with a
   byte-identical payload, and the whole matrix must replay bit-for-bit
   from its seed. The full matrix (more seeds, more bytes, goodput
   report) lives in `bench/main.exe -- chaos`; both run
   [Scenario.bulk_transfer]. *)

open Testlib
module F = Netsim.Faults

let bytes = 80_000
let seeds = [ 1; 7; 1001 ]

(* One bulk transfer under [schedule], started on a clean link (the
   handshake is not the subject here) with faults installed on both
   directions once established. The deadline is twice the time bound
   below, so a transfer that ends late fails the bound rather than
   passing as a hang. *)
let chaos_run ~seed ~schedule =
  Scenario.bulk_transfer ~seed ~schedule ~bytes ~chunk:4096 ~deadline_ns:(Engine.Sim.sec 60) ()

let test_schedule (name, schedule) () =
  List.iter
    (fun seed ->
      let o = chaos_run ~seed ~schedule in
      match o.eof_ns with
      | None -> Alcotest.failf "%s seed %d: transfer did not terminate" name seed
      | Some eof_ns ->
        check_bool (Printf.sprintf "%s seed %d: payload intact" name seed) true o.intact;
        (* 80 KB inside 30 s: a (deliberately loose) goodput floor of
           ~21 kbit/s. The bench reports the real numbers. *)
        check_bool
          (Printf.sprintf "%s seed %d: terminated in time" name seed)
          true
          (eof_ns <= Engine.Sim.sec 30))
    seeds

let test_replay_determinism () =
  (* Same seed, same schedule → the same run, down to every counter. *)
  let _, schedule = List.nth Scenario.chaos_schedules (List.length Scenario.chaos_schedules - 1) in
  let o1 = chaos_run ~seed:7 ~schedule and o2 = chaos_run ~seed:7 ~schedule in
  check_bool "both payloads intact" true (o1.intact && o2.intact);
  check_int "identical segment counts" o1.segments_sent o2.segments_sent;
  check_int "identical retransmit counts" o1.retransmits o2.retransmits;
  check_bool "identical fault counts" true (o1.faults = o2.faults);
  check_bool "both terminated" true (o1.eof_ns <> None);
  check_bool "identical EOF time" true (o1.eof_ns = o2.eof_ns);
  check_bool "faults actually fired" true (Scenario.faults_injected o1.faults > 0)

let test_zero_window_under_loss () =
  (* The sharpest deadlock scenario: the receiver stalls until the window
     is zero while the link also loses packets, so the reopening window
     update can be lost. Persist probes must unstick it. *)
  let o =
    Scenario.bulk_transfer ~seed:11
      ~schedule:(fun ~now:_ -> F.make ~ge:(F.burst_loss ~avg_loss:0.05 ~burst_len:4 ()) ())
      ~bytes:450_000 ~chunk:8192 ~stall_ns:(Engine.Sim.ms 500) ~deadline_ns:(Engine.Sim.sec 30) ()
  in
  check_bool "window went to zero and persist probed" true (o.persists >= 1);
  if o.eof_ns = None then Alcotest.fail "zero-window transfer deadlocked";
  check_bool "payload intact after zero-window episode" true o.intact

let test_hang_reported () =
  (* A link that goes down just after the handshake and stays down past
     the deadline: the runner reports the hang, and where each end is. *)
  let o =
    Scenario.bulk_transfer ~seed:7
      ~schedule:(fun ~now -> F.make ~flap:(now + 100_000, Engine.Sim.sec 60, Engine.Sim.sec 120) ())
      ~bytes ~chunk:4096 ~deadline_ns:(Engine.Sim.sec 5) ()
  in
  check_bool "no EOF" true (o.eof_ns = None);
  check_bool "payload short" true (o.received < bytes);
  check_string "client state" "FIN_WAIT_1" o.client_state;
  check_string "server state" "ESTABLISHED" o.server_state

let () =
  Alcotest.run "chaos"
    [
      ( "matrix",
        List.map
          (fun s -> Alcotest.test_case (fst s) `Quick (test_schedule s))
          Scenario.chaos_schedules );
      ( "properties",
        [
          Alcotest.test_case "replay determinism" `Quick test_replay_determinism;
          Alcotest.test_case "zero window under loss" `Quick test_zero_window_under_loss;
          Alcotest.test_case "hang reported" `Quick test_hang_reported;
        ] );
    ]
