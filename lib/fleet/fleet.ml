(* The fleet-scale serving scenario, shared by `mirage_sim fleet` and
   `bench fleet`: a load-balancer appliance fronting an autoscaled pool
   of web-server unikernels, driven by an open-loop client population
   over a 100x traffic ramp.

   The assembly (every box is a unikernel on the simulated bridge):

     clients (open loop) --> lb (L4 splice) --> web.0 .. web.N
                               ^                  | /metrics
                               | health checks    v
                           orchestrator <---- monitor (scrapes, SLOs)

   The orchestrator watches the monitor's scraped request rates (target
   tracking) and its p99 SLO alerts (reactive backstop), boots shards
   with [Boot_spec.clone] + [Appliance.start], and retires them through
   the drain path ([Appliance.Handle.drain]) — the whole PR 6 surface in
   one scenario. *)

(* Re-export: [fleet.ml] is the library's root module, so siblings are
   hidden unless surfaced here. *)
module Bootstorm = Bootstorm

module P = Mthread.Promise

(* The fleet's own appliances, applied once to the unikernel netstack:
   the orchestrator brings the monitor ([Orch.M]) and the balancer
   ([Orch.LB]) it drives. *)
module Orch = Orchestrator.Make (Netstack.Device.Tcp)
module Loadgen = Lb.Loadgen.Make (Netstack.Device.Tcp)
module Http = Core.Apps.Net.Http
module Handle = Core.Appliance.Handle
module World = Core.World

let ( >>= ) = P.bind

(* The fleet's fixed shape. The balancer health-checks and the monitor
   scrapes every [interval_ns] (the orchestrator's own timings live in
   [Orchestrator]); a shard does [per_request_cost_ns] of vCPU work per
   request; the p99 SLO fires above [p99_alert_ns]; an ordinary fleet
   never shrinks below [min_shards]. *)
let interval_ns = Engine.Sim.ms 250
let per_request_cost_ns = 10_000_000
let p99_alert_ns = 40_000_000
let min_shards = 1

(* Scale-to-zero traffic: [s2z_burst_rps] bursts of [s2z_burst_ns],
   each followed by an idle [s2z_gap_ns]. The gap exceeds the
   orchestrator's scale-in hold (5 s) plus its cooldown and a couple of
   control rounds, so the fleet demonstrably reaps to zero inside each
   idle window. *)
let s2z_burst_rps = 20.0
let s2z_burst_ns = Engine.Sim.sec 10
let s2z_gap_ns = Engine.Sim.sec 25

type params = {
  seed : int;
  base_rps : float;
  peak_rps : float;  (* the ramp multiplies base by peak/base (default 100x) *)
  warm_ns : int;
  ramp_up_ns : int;
  hold_ns : int;
  ramp_down_ns : int;
  tail_ns : int;
  think_ns : int;  (* per-user think time; population = rate * think *)
  max_shards : int;
  target_rps_per_shard : float;
  policy : Lb.Balancer.policy;
  autoscale : bool;  (* false: fixed fleet of [min_shards] (baseline) *)
  (* scale-to-zero: the fleet idles with no shards at all; the balancer
     parks flows that arrive with no backend and pokes the
     orchestrator's cold-start path, which boots a shard on demand, and
     the idle window reaps back to zero via the drain path. The traffic
     becomes burst/idle/burst instead of the ramp. *)
  scale_to_zero : bool;
}

(* Per-shard capacity is 1e9 / per_request_cost_ns = 100 rps; the 35 rps
   target tracks at ~0.35 utilisation, so the fleet scales ahead of the
   ramp and queueing stays negligible. Peak population: 500 rps * 1000 s
   think time = 5 * 10^5 simulated users. *)
let defaults =
  {
    seed = 42;
    base_rps = 5.0;
    peak_rps = 500.0;
    warm_ns = Engine.Sim.sec 5;
    ramp_up_ns = Engine.Sim.sec 30;
    hold_ns = Engine.Sim.sec 15;
    ramp_down_ns = Engine.Sim.sec 20;
    tail_ns = Engine.Sim.sec 15;
    think_ns = Engine.Sim.sec 1000;
    max_shards = 16;
    target_rps_per_shard = 35.0;
    policy = Lb.Balancer.Least_conns;
    autoscale = true;
    scale_to_zero = false;
  }

type sample = {
  s_ms : float;  (* virtual time *)
  s_shards : int;
  s_rate_rps : float;  (* rate as the monitor observes it *)
  s_p99_ms : float;  (* client-side windowed p99 *)
  s_in_flight : int;
}

type outcome = {
  o_params : params;
  o_issued : int;
  o_ok : int;
  o_errors : int;
  o_timeouts : int;
  o_refused : int;  (* LB accepted but had no healthy backend *)
  o_latencies : Trace.Hist.t;  (* all phases *)
  o_hold_p99_ns : float;  (* p99 of requests during peak hold; 0 under scale-to-zero *)
  o_scale_outs : int;
  o_scale_ins : int;
  o_peak_shards : int;
  o_final_shards : int;
  o_peak_population : int;
  o_events : Orch.event list;
  o_timeline : sample list;
  o_domains_left : int;  (* hypervisor domain-table size at the end *)
  o_shard_handles : (string * Handle.t) list;  (* every shard ever booted *)
  (* scale-to-zero accounting (zero on ordinary runs) *)
  o_cold_starts : int;  (* boots triggered by a parked flow *)
  o_held : int;  (* flows ever parked while the fleet was at zero *)
  o_held_wait_max_ns : int;  (* longest park before dispatch *)
}

let simulate p =
  let w = World.create ~seed:p.seed () in
  let sim = w.World.sim in

  (* -- the front door: LB appliance -- *)
  (* Forward reference broken by a ref: the balancer's on-demand hook
     pokes the orchestrator, which is only built once the balancer
     exists. *)
  let orch_ref = ref None in
  let on_demand =
    if p.scale_to_zero then
      Some (fun () -> match !orch_ref with Some o -> Orch.cold_start o | None -> ())
    else None
  in
  let lb_ref = ref None in
  let lb_h =
    World.appliance w ~config:(Core.Appliance.lb_appliance ()) ~ip:"10.0.0.2"
      ~main:(fun h ->
        Core.Exporter.mount h ~port:9100;
        let dom = Handle.domain h in
        let lb =
          Orch.LB.create sim ~dom:dom.Xensim.Domain.id ~policy:p.policy
            ~check_interval_ns:interval_ns ?on_demand
            ~tcp:(Netstack.Stack.tcp (Handle.stack h))
            ~port:80 ()
        in
        lb_ref := Some lb;
        Handle.on_drain h (fun () -> Orch.LB.drain lb);
        Handle.stopped h >>= fun () -> P.return 0)
      ()
  in
  let lb = match !lb_ref with Some lb -> lb | None -> failwith "lb did not boot" in

  (* -- the monitor appliance -- *)
  let rules =
    [
      Monitor.Slo.rule Orchestrator.watch_rule
        ~source:(Monitor.Slo.Value "http_p99_window_ns")
        ~cmp:Monitor.Slo.Above
        ~threshold:(float_of_int p99_alert_ns);
    ]
  in
  let mon_ref = ref None in
  let mon_h =
    World.appliance w ~config:(Core.Appliance.monitor_appliance ()) ~ip:"10.0.0.100"
      ~main:(fun h ->
        let dom = Handle.domain h in
        let m =
          Orch.M.create sim ~dom:dom.Xensim.Domain.id
            ~tcp:(Netstack.Stack.tcp (Handle.stack h))
            ~interval_ns ~rules ()
        in
        mon_ref := Some m;
        Orch.M.run m >>= fun () -> P.return 0)
      ()
  in
  ignore mon_h;
  let mon = match !mon_ref with Some m -> m | None -> failwith "monitor did not boot" in

  (* -- shard factory: what the orchestrator calls to scale out -- *)
  let template =
    Core.Boot_spec.make ~backend_dom:w.World.dom0 ~bridge:w.World.bridge
      ~config:(Core.Appliance.web_server ())
      ()
  in
  let body = String.make 512 'x' in
  let shard_handles = ref [] in
  let boot_shard ~index =
    let name = Printf.sprintf "web.%d" index in
    let ip = World.static_ip (Printf.sprintf "10.0.0.%d" (110 + (index mod 140))) in
    Core.Appliance.start w.World.hv w.World.toolstack
      (Core.Boot_spec.clone template ~name ~ip ())
      ~main:(fun h ->
        Core.Exporter.mount h ~port:9100;
        let dom = Handle.domain h in
        (* windowed p99 gauge: the recoverable latency signal the SLO
           rule watches (the cumulative http_request_ns summary never
           comes back down after an overload) *)
        let win = Trace.Hist.Window.create ~window_ns:(4 * interval_ns) in
        Trace.Metrics.register_read ~dom:dom.Xensim.Domain.id ~kind:Trace.Metrics.Gauge
          "http_p99_window_ns" (fun () ->
            int_of_float (Trace.Hist.Window.percentile win ~now:(Engine.Sim.now sim) 99.0));
        let srv =
          Http.create sim ~dom ~per_request_cost_ns
            ~on_request:(fun ~latency_ns ->
              Trace.Hist.Window.record win ~now:(Engine.Sim.now sim) latency_ns)
            ~tcp:(Netstack.Stack.tcp (Handle.stack h))
            ~port:80
            (fun _req -> P.return (Uhttp.Http_wire.response ~status:200 body))
        in
        Handle.on_drain h (fun () -> Http.drain srv);
        Handle.stopped h >>= fun () -> P.return 0)
    >>= fun h ->
    shard_handles := (name, h) :: !shard_handles;
    P.return
      {
        Orch.ep_name = name;
        ep_addr = Handle.address h;
        ep_port = 80;
        ep_metrics_port = 9100;
        ep_drain = (fun () -> Handle.drain h);
      }
  in

  (* -- the control loop -- *)
  let orch =
    Orch.create sim
      ~dom:(Handle.domain mon_h).Xensim.Domain.id
      ~lb ~mon ~boot:boot_shard
      ~min_shards:(if p.scale_to_zero then 0 else min_shards)
      ~max_shards:p.max_shards ~target_rps_per_shard:p.target_rps_per_shard
  in
  orch_ref := Some orch;
  P.run sim (Orch.launch orch);
  if p.autoscale then P.async (fun () -> Orch.run orch);

  (* -- the client population -- *)
  (* no vCPU accounting: the population is an infinitely fast traffic
     source, not a workload competing for simulated CPU *)
  let client_stack =
    (World.host w ~account_cpu:false ~name:"clients" ~ip:"10.0.0.9" ()).World.stack
  in
  let t0 = Engine.Sim.now sim in
  let hold_start = p.warm_ns + p.ramp_up_ns in
  let hold_end = hold_start + p.hold_ns in
  let hold_hist = Trace.Hist.create () in
  let gen =
    Loadgen.create sim
      ~tcp:(Netstack.Stack.tcp client_stack)
      ~dst:(Handle.address lb_h) ~think_ns:p.think_ns
      ~on_sample:(fun ~latency_ns ->
        (* the burst/idle schedule has no hold phase to record *)
        let offset = Engine.Sim.now sim - t0 in
        if (not p.scale_to_zero) && offset >= hold_start && offset < hold_end then
          Trace.Hist.record hold_hist latency_ns)
      ~prng:(Engine.Prng.create ~seed:(p.seed lxor 0x10ad) ())
  in
  let duration_ns =
    if p.scale_to_zero then (2 * s2z_burst_ns) + (2 * s2z_gap_ns)
    else p.warm_ns + p.ramp_up_ns + p.hold_ns + p.ramp_down_ns + p.tail_ns
  in
  let schedule =
    if p.scale_to_zero then begin
      (* burst / idle / burst / idle: the first gap proves the reap to
         zero mid-run, the second burst proves the cold boot from zero,
         the final gap proves the fleet ends at zero. *)
      let b = s2z_burst_ns and g = s2z_gap_ns and r = s2z_burst_rps in
      [
        (0, r);
        (b, r);
        (b, 0.0);
        (b + g, 0.0);
        (b + g, r);
        (b + g + b, r);
        (b + g + b, 0.0);
        (duration_ns, 0.0);
      ]
    end
    else
      [
        (0, p.base_rps);
        (p.warm_ns, p.base_rps);
        (hold_start, p.peak_rps);
        (hold_end, p.peak_rps);
        (hold_end + p.ramp_down_ns, p.base_rps);
        (duration_ns, p.base_rps);
      ]
  in
  P.async (fun () -> Loadgen.run gen ~schedule ~duration_ns);

  (* -- timeline sampler (for the dashboard and the bench trace) -- *)
  let timeline = ref [] in
  let sample_every = Engine.Sim.ms 500 in
  let rec sample_loop () =
    let now = Engine.Sim.now sim in
    if now - t0 > duration_ns then P.return ()
    else begin
      timeline :=
        {
          s_ms = Engine.Sim.to_ms (now - t0);
          s_shards = Orch.shard_count orch;
          s_rate_rps = Option.value (Orch.total_rate orch) ~default:0.0;
          s_p99_ms = Trace.Hist.Window.percentile (Loadgen.window gen) ~now 99.0 /. 1e6;
          s_in_flight = Loadgen.in_flight gen;
        }
        :: !timeline;
      P.sleep sim sample_every >>= sample_loop
    end
  in
  P.async sample_loop;

  (* run to the end of the schedule plus a grace period for stragglers *)
  Engine.Sim.run ~until:(t0 + duration_ns + Engine.Sim.sec 3) sim;

  let events = Orch.events orch in
  let peak_shards =
    List.fold_left (fun acc (s : sample) -> max acc s.s_shards)
      (Orch.shard_count orch)
      !timeline
  in
  {
    o_params = p;
    o_issued = Loadgen.issued gen;
    o_ok = Loadgen.ok gen;
    o_errors = Loadgen.errors gen;
    o_timeouts = Loadgen.timeouts gen;
    o_refused = Orch.LB.refused lb;
    o_latencies = Loadgen.latencies gen;
    o_hold_p99_ns = Trace.Hist.percentile hold_hist 99.0;
    o_scale_outs = Orch.scale_outs orch;
    o_scale_ins = Orch.scale_ins orch;
    o_peak_shards = peak_shards;
    o_final_shards = Orch.shard_count orch;
    o_peak_population = Loadgen.peak_population gen;
    o_events = events;
    o_timeline = List.rev !timeline;
    o_domains_left = Xensim.Hypervisor.domain_count w.World.hv;
    o_shard_handles = List.rev !shard_handles;
    o_cold_starts = Orch.cold_starts orch;
    o_held = Orch.LB.held_total lb;
    o_held_wait_max_ns = Orch.LB.held_wait_max_ns lb;
  }

(* The orchestrator decides from scraped metrics, so a run owns the
   metrics plane. On return the plane goes back to its prior on/off
   state and the run's registrations are dropped: their read callbacks
   would otherwise pin the finished fleet's world. *)
let run p =
  let was_on = Trace.Metrics.enabled () in
  Trace.Metrics.reset ();
  Trace.Metrics.enable ();
  Fun.protect
    ~finally:(fun () ->
      Trace.Metrics.reset ();
      if not was_on then Trace.Metrics.disable ())
    (fun () -> simulate p)

(* The single-shard reference: same machinery, flat schedule at the base
   rate, autoscaler parked. Its p99 is the denominator of the "p99 within
   2x of a single-shard baseline across a 100x ramp" acceptance check. *)
let baseline () =
  run
    {
      defaults with
      peak_rps = defaults.base_rps;
      max_shards = 1;
      autoscale = false;
      scale_to_zero = false;
      warm_ns = Engine.Sim.sec 2;
      ramp_up_ns = Engine.Sim.sec 2;
      hold_ns = Engine.Sim.sec 10;
      ramp_down_ns = Engine.Sim.sec 1;
      tail_ns = Engine.Sim.sec 1;
    }
