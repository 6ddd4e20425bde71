(* `bench bootstorm`: cold-start a storm of web-server unikernels at
   10², 10³ and 10⁴ domains, reporting boots/sec and the p50/p99
   time-to-first-response (client request fired the instant each
   appliance's stack is up), then reap everything back to zero.

   The virtual-time numbers (boots/sec, TTFR percentiles) are
   deterministic and gated by tools/bench_gate.sh; the wall-clock column
   is the engine's own cost and is reported for reference — it is the
   number that goes quadratic if an O(n) structure sneaks back into the
   hot path (watch the 10³ → 10⁴ ratio, which should stay ~linear).

   Two host-memory columns sit beside it, also reference-only: the
   process's peak heap (sizes run in ascending order, so each row's peak
   is its own storm's), and the live heap each appliance holds while the
   whole storm is up — measured after [Gc.compact] at the storm's peak,
   minus the live heap before it, over [n]. *)

let sizes = [ 100; 1_000; 10_000 ]

let run () =
  Util.header "Boot storm: concurrent cold starts to first response (seed 42)";
  Printf.printf "  %-8s %12s %12s %12s %12s %10s %8s %10s %10s\n" "domains" "boots/sec"
    "ttfr p50 ms" "ttfr p99 ms" "boot win ms" "ok" "wall s" "peak MB" "live KB/ap";
  let wall = Hashtbl.create 4 in
  let word_bytes = float_of_int (Sys.word_size / 8) in
  let live_words () =
    Gc.compact ();
    (Gc.stat ()).Gc.live_words
  in
  List.iter
    (fun n ->
      let live0 = live_words () in
      let live_peak = ref live0 and probe_s = ref 0.0 in
      (* the probe's compaction is not the engine's cost: keep it out of
         the wall clock *)
      let at_peak () =
        let t = Unix.gettimeofday () in
        live_peak := live_words ();
        probe_s := Unix.gettimeofday () -. t
      in
      let w0 = Unix.gettimeofday () in
      let o = Fleet.Bootstorm.run ~seed:42 ~n ~at_peak () in
      let w = Unix.gettimeofday () -. w0 -. !probe_s in
      let peak_mb = float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. word_bytes /. 1e6 in
      let live_kb = float_of_int (!live_peak - live0) *. word_bytes /. 1e3 /. float_of_int n in
      Hashtbl.replace wall n w;
      if o.Fleet.Bootstorm.bs_failed > 0 then
        Printf.printf "  WARNING: %d/%d appliances never answered\n"
          o.Fleet.Bootstorm.bs_failed n;
      if o.Fleet.Bootstorm.bs_domains_left <> 2 then
        Printf.printf "  WARNING: %d domains still alive after the reap (expected 2)\n"
          o.Fleet.Bootstorm.bs_domains_left;
      Printf.printf "  %-8d %12.0f %12.2f %12.2f %12.2f %10d %8.2f %10.1f %10.1f\n" n
        o.Fleet.Bootstorm.bs_boots_per_sec
        (o.Fleet.Bootstorm.bs_ttfr_p50_ns /. 1e6)
        (o.Fleet.Bootstorm.bs_ttfr_p99_ns /. 1e6)
        (Engine.Sim.to_ms o.Fleet.Bootstorm.bs_boot_window_ns)
        o.Fleet.Bootstorm.bs_ok w peak_mb live_kb;
      let emit metric ~unit_ v = Util.emit ~figure:"bootstorm" ~metric ~unit_ v in
      let tag fmt = Printf.sprintf fmt n in
      emit (tag "%d/boots-per-sec") ~unit_:"boots/s" o.Fleet.Bootstorm.bs_boots_per_sec;
      emit (tag "%d/ttfr-p50") ~unit_:"ms" (o.Fleet.Bootstorm.bs_ttfr_p50_ns /. 1e6);
      emit (tag "%d/ttfr-p99") ~unit_:"ms" (o.Fleet.Bootstorm.bs_ttfr_p99_ns /. 1e6);
      emit (tag "%d/ok") ~unit_:"requests" (float_of_int o.Fleet.Bootstorm.bs_ok);
      emit (tag "%d/domains-left") ~unit_:"domains"
        (float_of_int o.Fleet.Bootstorm.bs_domains_left);
      (* host cost: machine- and GC-dependent reference, not gated *)
      emit (tag "%d/wall-clock") ~unit_:"s" w;
      emit (tag "%d/peak-heap") ~unit_:"MB" peak_mb;
      emit (tag "%d/live-kb-per-appliance") ~unit_:"KB" live_kb)
    sizes;
  match (Hashtbl.find_opt wall 1_000, Hashtbl.find_opt wall 10_000) with
  | Some w3, Some w4 when w3 > 0.0 ->
    Printf.printf
      "  wall-clock scaling 10^3 -> 10^4: %.1fx for 10x domains (quadratic would be ~100x)\n"
      (w4 /. w3)
  | _ -> ()
