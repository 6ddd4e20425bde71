(* `mirage_sim fleet`: run the fleet-scale serving scenario (lib/fleet) —
   an LB appliance fronting an autoscaled pool of web unikernels under an
   open-loop 100x traffic ramp — and render the control-plane story:
   scale events, a shards/rate/p99 timeline, and the latency verdict. *)

open Cmdliner

let run_fleet seed peak_rps duration_scale policy scale_to_zero trace =
  Plane_cli.run ?trace @@ fun () ->
  let scale n = n * duration_scale / 100 in
  let d = Fleet.defaults in
  let p =
    {
      d with
      Fleet.seed;
      peak_rps;
      policy;
      scale_to_zero;
      warm_ns = scale d.Fleet.warm_ns;
      ramp_up_ns = scale d.Fleet.ramp_up_ns;
      hold_ns = scale d.Fleet.hold_ns;
      ramp_down_ns = scale d.Fleet.ramp_down_ns;
      tail_ns = scale d.Fleet.tail_ns;
    }
  in
  if scale_to_zero then
    Printf.printf "fleet: scale-to-zero, %.0f rps bursts with %.0f s idle gaps, policy %s, seed %d\n"
      p.Fleet.s2z_burst_rps
      (float_of_int p.Fleet.s2z_gap_ns /. 1e9)
      (Lb.Balancer.policy_name p.Fleet.policy)
      seed
  else
    Printf.printf "fleet: %.0f -> %.0f rps (%.0fx ramp), policy %s, seed %d\n"
      p.Fleet.base_rps p.Fleet.peak_rps
      (p.Fleet.peak_rps /. p.Fleet.base_rps)
      (Lb.Balancer.policy_name p.Fleet.policy)
      seed;
  let o = Fleet.run p in

  Printf.printf "\n-- scale events --\n";
  List.iter
    (fun (ev : Fleet.Orch.event) ->
      Printf.printf "  [%8.1f ms] %-9s %-8s -> %2d shards  (%s)\n"
        (Engine.Sim.to_ms ev.Fleet.Orch.ev_time_ns)
        (match ev.Fleet.Orch.ev_action with
        | Fleet.Orch.Scale_out -> "SCALE-OUT"
        | Fleet.Orch.Scale_in -> "SCALE-IN")
        ev.Fleet.Orch.ev_shard ev.Fleet.Orch.ev_shards
        ev.Fleet.Orch.ev_reason)
    o.Fleet.o_events;

  Printf.printf "\n-- timeline (0.5 s samples) --\n";
  Printf.printf "  %9s %7s %9s %9s %9s\n" "t(ms)" "shards" "rate(rps)" "p99(ms)" "in-flight";
  let every = max 1 (List.length o.Fleet.o_timeline / 24) in
  List.iteri
    (fun i (s : Fleet.sample) ->
      if i mod every = 0 then
        Printf.printf "  %9.0f %7d %9.1f %9.2f %9d\n" s.Fleet.s_ms s.Fleet.s_shards
          s.Fleet.s_rate_rps s.Fleet.s_p99_ms s.Fleet.s_in_flight)
    o.Fleet.o_timeline;

  let h = o.Fleet.o_latencies in
  Printf.printf "\n-- verdict --\n";
  Printf.printf "  requests   : %d issued, %d ok, %d errors, %d timeouts, %d refused\n"
    o.Fleet.o_issued o.Fleet.o_ok o.Fleet.o_errors o.Fleet.o_timeouts o.Fleet.o_refused;
  Printf.printf "  latency    : p50 %.2f ms, p99 %.2f ms (hold-phase p99 %.2f ms)\n"
    (Engine.Sim.to_ms (int_of_float (Trace.Hist.percentile h 50.0)))
    (Engine.Sim.to_ms (int_of_float (Trace.Hist.percentile h 99.0)))
    (Engine.Sim.to_ms (int_of_float o.Fleet.o_hold_p99_ns));
  Printf.printf "  fleet      : %d scale-outs, %d scale-ins, peak %d shards, final %d\n"
    o.Fleet.o_scale_outs o.Fleet.o_scale_ins o.Fleet.o_peak_shards o.Fleet.o_final_shards;
  Printf.printf "  population : ~%d simulated users at peak (Little's law)\n"
    o.Fleet.o_peak_population;
  if scale_to_zero then
    Printf.printf "  cold start : %d boots from zero, %d flows parked, longest park %.2f ms\n"
      o.Fleet.o_cold_starts o.Fleet.o_held
      (Engine.Sim.to_ms o.Fleet.o_held_wait_max_ns);
  Printf.printf "  domains    : %d left in the hypervisor table (retired shards are gone)\n"
    o.Fleet.o_domains_left

let policy_conv =
  let parse = function
    | "hash" -> Ok Lb.Balancer.Hash
    | "least-conns" -> Ok Lb.Balancer.Least_conns
    | s -> Error (`Msg (Printf.sprintf "unknown policy %s (hash|least-conns)" s))
  in
  Arg.conv (parse, fun fmt p -> Format.pp_print_string fmt (Lb.Balancer.policy_name p))

let cmd =
  let doc = "Run the fleet: LB + autoscaled web shards under a 100x open-loop traffic ramp" in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Simulation PRNG seed.") in
  let peak =
    Arg.(value & opt float 500.0 & info [ "peak-rps" ] ~docv:"RPS" ~doc:"Peak arrival rate.")
  in
  let duration =
    Arg.(
      value & opt int 100
      & info [ "duration-pct" ] ~docv:"PCT"
          ~doc:"Scale every schedule phase to $(docv)%% of the default 85 s run.")
  in
  let policy =
    Arg.(
      value
      & opt policy_conv Lb.Balancer.Least_conns
      & info [ "policy" ] ~docv:"POLICY" ~doc:"Balancing policy: hash or least-conns.")
  in
  let scale_to_zero =
    Arg.(
      value & flag
      & info [ "scale-to-zero" ]
          ~doc:
            "Replace the ramp with idle/burst cycles: the fleet starts at zero shards, the LB \
             parks the first request of each burst while the orchestrator boots from zero, and \
             idle gaps reap the pool back to zero.")
  in
  Cmd.v (Cmd.info "fleet" ~doc)
    Term.(const run_fleet $ seed $ peak $ duration $ policy $ scale_to_zero $ Plane_cli.trace)
