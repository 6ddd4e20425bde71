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
module Apps = Core.Apps.Net
module Handle = Core.Appliance.Handle

let ( >>= ) = P.bind

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
  min_shards : int;
  max_shards : int;
  target_rps_per_shard : float;
  per_request_cost_ns : int;  (* per-request vCPU work on a shard *)
  policy : Lb.Balancer.policy;
  autoscale : bool;  (* false: fixed fleet of [min_shards] (baseline) *)
  p99_alert_ns : int;  (* SLO threshold on the windowed p99 gauge *)
  interval_ns : int;  (* scrape + health-check + control interval *)
  (* scale-to-zero: the fleet idles with no shards at all; the balancer
     parks flows that arrive with no backend and pokes the
     orchestrator's cold-start path, which boots a shard on demand, and
     the idle window reaps back to zero via the drain path. The traffic
     becomes burst/idle/burst instead of the ramp. *)
  scale_to_zero : bool;
  s2z_burst_rps : float;  (* request rate inside a burst *)
  s2z_burst_ns : int;  (* burst length *)
  s2z_gap_ns : int;  (* idle window between (and after) bursts *)
  s2z_pending_timeout_ns : int;  (* how long the LB parks a flow *)
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
    min_shards = 1;
    max_shards = 16;
    target_rps_per_shard = 35.0;
    per_request_cost_ns = 10_000_000;
    policy = Lb.Balancer.Least_conns;
    autoscale = true;
    p99_alert_ns = 40_000_000;
    interval_ns = 250_000_000;
    scale_to_zero = false;
    s2z_burst_rps = 20.0;
    s2z_burst_ns = Engine.Sim.sec 10;
    (* > scale_in_hold (5 s) + cooldown + a couple of control rounds, so
       the fleet demonstrably reaps to zero inside each idle window *)
    s2z_gap_ns = Engine.Sim.sec 25;
    s2z_pending_timeout_ns = Engine.Sim.sec 2;
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
  o_hold_p99_ns : float;  (* p99 of requests arriving during peak hold *)
  o_scale_outs : int;
  o_scale_ins : int;
  o_peak_shards : int;
  o_final_shards : int;
  o_peak_population : int;
  o_events : Apps.Orchestrator.event list;
  o_timeline : sample list;
  o_domains_left : int;  (* hypervisor domain-table size at the end *)
  o_shard_handles : (string * Handle.t) list;  (* every shard ever booted *)
  (* scale-to-zero accounting (zero on ordinary runs) *)
  o_cold_starts : int;  (* boots triggered by a parked flow *)
  o_held : int;  (* flows ever parked while the fleet was at zero *)
  o_held_wait_max_ns : int;  (* longest park before dispatch *)
}

let static_ip s =
  {
    Netstack.Ipv4.address = Netstack.Ipaddr.of_string s;
    netmask = Netstack.Ipaddr.of_string "255.255.255.0";
    gateway = None;
  }

let simulate p =
  let sim = Engine.Sim.create ~seed:p.seed () in
  let hv = Xensim.Hypervisor.create sim in
  let dom0 =
    Xensim.Hypervisor.create_domain hv ~name:"dom0" ~mem_mib:2048 ~platform:Platform.linux_pv ()
  in
  dom0.Xensim.Domain.state <- Xensim.Domain.Running;
  let bridge = Netsim.Bridge.create sim in
  let ts = Xensim.Toolstack.create hv in

  (* -- the front door: LB appliance -- *)
  (* Forward reference broken by a ref: the balancer's on-demand hook
     pokes the orchestrator, which is only built once the balancer
     exists. *)
  let orch_ref = ref None in
  let on_demand =
    if p.scale_to_zero then
      Some (fun () -> match !orch_ref with Some o -> Apps.Orchestrator.cold_start o | None -> ())
    else None
  in
  let lb_ref = ref None in
  let lb_h =
    P.run sim
      (Core.Appliance.start hv ts
         (Core.Boot_spec.make ~backend_dom:dom0 ~bridge
            ~config:(Core.Appliance.lb_appliance ())
            ~ip:(static_ip "10.0.0.2") ~metrics_port:9100 ())
         ~main:(fun h ->
           let dom = Handle.domain h in
           let lb =
             Apps.Lb.create sim ~dom:dom.Xensim.Domain.id ~policy:p.policy
               ~check_interval_ns:p.interval_ns ?on_demand
               ~pending_timeout_ns:p.s2z_pending_timeout_ns
               ~tcp:(Netstack.Stack.tcp (Handle.stack h))
               ~port:80 ()
           in
           lb_ref := Some lb;
           Handle.on_drain h (fun () -> Apps.Lb.drain lb);
           Handle.stopped h >>= fun () -> P.return 0))
  in
  let lb = match !lb_ref with Some lb -> lb | None -> failwith "lb did not boot" in

  (* -- the monitor appliance -- *)
  let rules =
    [
      Monitor.Slo.rule "p99-latency"
        ~source:(Monitor.Slo.Value "http_p99_window_ns")
        ~cmp:Monitor.Slo.Above
        ~threshold:(float_of_int p.p99_alert_ns)
        ~for_ns:(2 * p.interval_ns) ~hold_ns:(2 * p.interval_ns);
    ]
  in
  let mon_ref = ref None in
  let mon_h =
    P.run sim
      (Core.Appliance.start hv ts
         (Core.Boot_spec.make ~backend_dom:dom0 ~bridge
            ~config:(Core.Appliance.monitor_appliance ())
            ~ip:(static_ip "10.0.0.100") ())
         ~main:(fun h ->
           let dom = Handle.domain h in
           let m =
             Apps.Monitor.create sim ~dom:dom.Xensim.Domain.id
               ~tcp:(Netstack.Stack.tcp (Handle.stack h))
               ~interval_ns:p.interval_ns ~rules ()
           in
           mon_ref := Some m;
           Apps.Monitor.run m >>= fun () -> P.return 0))
  in
  ignore mon_h;
  let mon = match !mon_ref with Some m -> m | None -> failwith "monitor did not boot" in

  (* -- shard factory: what the orchestrator calls to scale out -- *)
  let template =
    Core.Boot_spec.make ~backend_dom:dom0 ~bridge
      ~config:(Core.Appliance.web_server ())
      ~metrics_port:9100 ()
  in
  let body = String.make 512 'x' in
  let shard_handles = ref [] in
  let boot_shard ~index =
    let name = Printf.sprintf "web.%d" index in
    let ip = static_ip (Printf.sprintf "10.0.0.%d" (110 + (index mod 140))) in
    Core.Appliance.start hv ts
      (Core.Boot_spec.clone template ~name ~ip ())
      ~main:(fun h ->
        let dom = Handle.domain h in
        (* windowed p99 gauge: the recoverable latency signal the SLO
           rule watches (the cumulative http_request_ns summary never
           comes back down after an overload) *)
        let win = Lb.Latwin.create sim ~window_ns:(4 * p.interval_ns) () in
        Lb.Latwin.register_gauge win ~dom:dom.Xensim.Domain.id "http_p99_window_ns";
        let srv =
          Apps.Http.create sim ~dom ~per_request_cost_ns:p.per_request_cost_ns
            ~on_request:(fun ~latency_ns -> Lb.Latwin.observe win latency_ns)
            ~tcp:(Netstack.Stack.tcp (Handle.stack h))
            ~port:80
            (fun _req -> P.return (Uhttp.Http_wire.response ~status:200 body))
        in
        Handle.on_drain h (fun () -> Apps.Http.drain srv);
        Handle.stopped h >>= fun () -> P.return 0)
    >>= fun h ->
    shard_handles := (name, h) :: !shard_handles;
    P.return
      {
        Apps.Orchestrator.ep_name = name;
        ep_addr = Handle.address h;
        ep_port = 80;
        ep_metrics_port = 9100;
        ep_drain = (fun () -> Handle.drain h);
      }
  in

  (* -- the control loop -- *)
  let orch =
    Apps.Orchestrator.create sim
      ~dom:(Handle.domain mon_h).Xensim.Domain.id
      ~lb ~mon ~boot:boot_shard
      ~min_shards:(if p.scale_to_zero then 0 else p.min_shards)
      ~max_shards:p.max_shards ~target_rps_per_shard:p.target_rps_per_shard
      ~watch_rule:"p99-latency" ~interval_ns:(2 * p.interval_ns) ~cooldown_ns:(Engine.Sim.sec 1)
      ~scale_in_hold_ns:(Engine.Sim.sec 5) ~max_step:2 ()
  in
  orch_ref := Some orch;
  P.run sim (Apps.Orchestrator.launch orch);
  if p.autoscale then P.async (fun () -> Apps.Orchestrator.run orch);

  (* -- the client population -- *)
  let client_dom =
    Xensim.Hypervisor.create_domain hv ~name:"clients" ~mem_mib:512 ~platform:Platform.xen_extent ()
  in
  client_dom.Xensim.Domain.state <- Xensim.Domain.Running;
  let client_nic =
    Netsim.Bridge.new_nic bridge ~mac:(Netsim.mac_of_int (100 + client_dom.Xensim.Domain.id)) ()
  in
  let client_netif =
    Devices.Netif.connect hv ~dom:client_dom ~backend_dom:dom0 ~nic:client_nic ()
  in
  (* no ~dom: the population is an infinitely fast traffic source, not a
     workload competing for simulated CPU *)
  let client_stack =
    P.run sim (Netstack.Stack.create sim ~netif:client_netif (Netstack.Stack.Static (static_ip "10.0.0.9")))
  in
  let t0 = Engine.Sim.now sim in
  let hold_start = p.warm_ns + p.ramp_up_ns in
  let hold_end = hold_start + p.hold_ns in
  let hold_hist = Trace.Hist.create () in
  let gen =
    Apps.Loadgen.create sim
      ~tcp:(Netstack.Stack.tcp client_stack)
      ~dst:(Handle.address lb_h) ~port:80 ~think_ns:p.think_ns
      ~on_sample:(fun ~latency_ns ->
        let offset = Engine.Sim.now sim - t0 in
        if offset >= hold_start && offset < hold_end then
          Trace.Hist.record hold_hist latency_ns)
      ~prng:(Engine.Prng.create ~seed:(p.seed lxor 0x10ad) ())
      ()
  in
  let duration_ns =
    if p.scale_to_zero then (2 * p.s2z_burst_ns) + (2 * p.s2z_gap_ns)
    else p.warm_ns + p.ramp_up_ns + p.hold_ns + p.ramp_down_ns + p.tail_ns
  in
  let schedule =
    if p.scale_to_zero then begin
      (* burst / idle / burst / idle: the first gap proves the reap to
         zero mid-run, the second burst proves the cold boot from zero,
         the final gap proves the fleet ends at zero. *)
      let b = p.s2z_burst_ns and g = p.s2z_gap_ns and r = p.s2z_burst_rps in
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
  P.async (fun () -> Apps.Loadgen.run gen ~schedule ~duration_ns);

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
          s_shards = Apps.Orchestrator.shard_count orch;
          s_rate_rps = Option.value (Apps.Orchestrator.total_rate orch) ~default:0.0;
          s_p99_ms =
            (match Lb.Latwin.p99 (Apps.Loadgen.window gen) with
            | Some v -> Engine.Sim.to_ms v
            | None -> 0.0);
          s_in_flight = Apps.Loadgen.in_flight gen;
        }
        :: !timeline;
      P.sleep sim sample_every >>= sample_loop
    end
  in
  P.async sample_loop;

  (* run to the end of the schedule plus a grace period for stragglers *)
  Engine.Sim.run ~until:(t0 + duration_ns + Engine.Sim.sec 3) sim;

  let events = Apps.Orchestrator.events orch in
  let peak_shards =
    List.fold_left (fun acc (s : sample) -> max acc s.s_shards)
      (Apps.Orchestrator.shard_count orch)
      !timeline
  in
  {
    o_params = p;
    o_issued = Apps.Loadgen.issued gen;
    o_ok = Apps.Loadgen.ok gen;
    o_errors = Apps.Loadgen.errors gen;
    o_timeouts = Apps.Loadgen.timeouts gen;
    o_refused = Apps.Lb.refused lb;
    o_latencies = Apps.Loadgen.latencies gen;
    o_hold_p99_ns = Trace.Hist.percentile hold_hist 99.0;
    o_scale_outs = Apps.Orchestrator.scale_outs orch;
    o_scale_ins = Apps.Orchestrator.scale_ins orch;
    o_peak_shards = peak_shards;
    o_final_shards = Apps.Orchestrator.shard_count orch;
    o_peak_population = Apps.Loadgen.peak_population gen;
    o_events = events;
    o_timeline = List.rev !timeline;
    o_domains_left = Xensim.Hypervisor.domain_count hv;
    o_shard_handles = List.rev !shard_handles;
    o_cold_starts = Apps.Orchestrator.cold_starts orch;
    o_held = Apps.Lb.held_total lb;
    o_held_wait_max_ns = Apps.Lb.held_wait_max_ns lb;
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
let baseline ?(p = defaults) () =
  run
    {
      p with
      peak_rps = p.base_rps;
      min_shards = 1;
      max_shards = 1;
      autoscale = false;
      scale_to_zero = false;
      warm_ns = Engine.Sim.sec 2;
      ramp_up_ns = Engine.Sim.sec 2;
      hold_ns = Engine.Sim.sec 10;
      ramp_down_ns = Engine.Sim.sec 1;
      tail_ns = Engine.Sim.sec 1;
    }
