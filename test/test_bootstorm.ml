(* Boot-storm and scale-to-zero coverage: the storm harness must be
   virtual-time deterministic (same seed -> byte-identical schedule),
   must get every appliance answered, and must reap the hypervisor back
   to just dom0 + the measuring client; the scale-to-zero fleet must
   boot from zero on the first request of a burst, lose nothing while
   the pool is cold, and reap back to zero in the idle gap. *)

open Testlib
module Bootstorm = Fleet.Bootstorm

let storm ?(seed = 42) n = Bootstorm.run ~seed ~n ()

let test_storm_all_answered () =
  let o = storm 100 in
  check_int "all appliances booted and answered" 100 o.Bootstorm.bs_ok;
  check_int "no failures" 0 o.Bootstorm.bs_failed;
  check_int "reaped to dom0 + client" 2 o.Bootstorm.bs_domains_left;
  check_bool "boot window positive" true (o.Bootstorm.bs_boot_window_ns > 0);
  check_bool "every entry has a response time" true
    (List.for_all (fun e -> e.Bootstorm.e_ttfr_ns >= e.Bootstorm.e_ready_ns) o.Bootstorm.bs_schedule);
  check_bool "p99 >= p50" true (o.Bootstorm.bs_ttfr_p99_ns >= o.Bootstorm.bs_ttfr_p50_ns)

let test_storm_deterministic () =
  let a = storm ~seed:7 100 in
  let b = storm ~seed:7 100 in
  check_bool "same seed, byte-identical schedule" true
    (a.Bootstorm.bs_schedule = b.Bootstorm.bs_schedule);
  check_int "same boot window" a.Bootstorm.bs_boot_window_ns b.Bootstorm.bs_boot_window_ns;
  check_int "same reap time" a.Bootstorm.bs_reap_ns b.Bootstorm.bs_reap_ns;
  (* nothing in the storm draws randomness (no loss, no jitter), so the
     schedule is a pure function of [n] — a third run at a different
     size must disagree, a third run at the same size must not *)
  let c = storm ~seed:7 101 in
  check_bool "different size, different schedule" true
    (a.Bootstorm.bs_schedule <> c.Bootstorm.bs_schedule)

(* The scale-to-zero loop end to end: no shards exist when the first
   burst arrives, the LB parks the flow and pokes the orchestrator's
   cold-start path, and each idle gap drains the pool back to zero.
   Nothing may be lost across the cold starts. *)
let test_scale_to_zero_fleet () =
  let p = { Fleet.defaults with Fleet.seed = 11; scale_to_zero = true } in
  let o = Fleet.run p in
  check_bool "cold start happened" true (o.Fleet.o_cold_starts >= 1);
  check_bool "flows were parked at zero" true (o.Fleet.o_held >= 1);
  check_bool "parked flows waited a measurable time" true (o.Fleet.o_held_wait_max_ns > 0);
  check_bool "requests were issued" true (o.Fleet.o_issued > 0);
  check_int "zero lost requests" o.Fleet.o_issued o.Fleet.o_ok;
  check_int "no refusals while cold" 0 o.Fleet.o_refused;
  check_int "reaped back to zero shards" 0 o.Fleet.o_final_shards

let () =
  Alcotest.run "bootstorm"
    [
      ( "storm",
        [
          Alcotest.test_case "all answered, reaped to zero" `Quick test_storm_all_answered;
          Alcotest.test_case "deterministic schedule" `Quick test_storm_deterministic;
        ] );
      ("scale-to-zero", [ Alcotest.test_case "fleet boots from zero" `Quick test_scale_to_zero_fleet ]);
    ]
