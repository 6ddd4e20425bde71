(* The boot-storm harness: boot N web-server unikernels concurrently on
   one bridge, measure each one's time-to-first-response from a client
   that fires a request the instant the appliance's stack is up, then
   reap every domain back down to zero. The paper's headline claim is
   that unikernels boot fast enough to appear on demand; this is that
   claim at fleet scale, and it is the workload that flushed out every
   O(n) structure in the engine (eventq live accounting, hypervisor
   domain index, bridge service directory, detach path).

   Storm hygiene, so 10⁴ domains do not drown the bridge in broadcast:
   - the bridge runs with [static_fdb]: each port's MAC is pre-programmed
     at attach, so nothing floods to learn addresses;
   - appliances boot with [Boot_spec.quiet_net]: no gratuitous ARP
     (10⁴ announcements × 10⁴ ports would be 10⁸ deliveries);
   - ARP caches are seeded statically in both directions per appliance
     ([Arp.add_static]), the way a controller or /etc/ethers would.

   Everything is virtual-time deterministic: same seed and same [n] give
   a byte-identical [bs_schedule] (per-appliance ready and first-response
   times) and reap outcome. *)

module P = Mthread.Promise
module Apps = Core.Apps.Net
module Handle = Core.Appliance.Handle
module World = Core.World

let ( >>= ) = P.bind

(* One appliance's life in the storm, times relative to storm start. *)
type entry = {
  e_name : string;
  e_ready_ns : int;  (* stack up, HTTP listener installed *)
  e_ttfr_ns : int;  (* first response received by the client; -1 = none *)
}

type outcome = {
  bs_n : int;
  bs_ok : int;  (* appliances that answered their first request *)
  bs_failed : int;
  bs_boot_window_ns : int;  (* storm start → last appliance ready *)
  bs_boots_per_sec : float;  (* n / boot window, virtual time *)
  bs_ttfr_p50_ns : float;
  bs_ttfr_p99_ns : float;
  bs_reap_ns : int;  (* virtual time to tear every domain back down *)
  bs_domains_left : int;  (* expect 2: dom0 + the client *)
  bs_schedule : entry list;  (* index order; the determinism witness *)
}

let mask8 = Netstack.Ipaddr.v4 255 0 0 0

(* 10.0.b.c with c in 1..250: unique for n ≤ 62500, never a network,
   broadcast or client address. *)
let ip_of_index i = Netstack.Ipaddr.v4 10 0 (i / 250) (1 + (i mod 250))

(* [at_peak] runs once every appliance has answered (or given up) and
   before the reap: the moment the storm holds the most live state, for
   host-side footprint probes. *)
let run ?(seed = 42) ?(at_peak = ignore) ~n () =
  if n < 1 then invalid_arg "Bootstorm.run: n must be >= 1";
  (* the registry would add 10⁴ domains of registration work and nobody
     scrapes here; keep the storm lean and deterministic *)
  Trace.Metrics.disable ();
  Trace.Metrics.reset ();
  let w = World.create ~seed ~static_fdb:true () in
  let sim = w.World.sim in

  (* -- the measuring client: infinitely fast (no ~dom), quiet -- *)
  let client_dom = World.domain w ~name:"storm-client" () in
  let client_nic =
    Netsim.Bridge.new_nic w.World.bridge
      ~mac:(Netsim.mac_of_int (100 + client_dom.Xensim.Domain.id))
      ()
  in
  (* Direct (host) attachment, not a PV vif: a measuring client behind a
     511-slot receive ring would drop bursts from 10^4 concurrent
     responders and measure its own SYN retransmissions instead of the
     appliances' cold starts.  The appliance side keeps the full PV path
     through dom0's backend, which stays the storm's honest bottleneck. *)
  let client_netif = Devices.Netif.connect_direct ~dom:client_dom ~nic:client_nic () in
  let client_cfg =
    { Netstack.Ipv4.address = Netstack.Ipaddr.v4 10 255 0 1; netmask = mask8; gateway = None }
  in
  let client_stack =
    P.run sim
      (Netstack.Stack.create sim ~announce:false ~netif:client_netif
         (Netstack.Stack.Static client_cfg))
  in
  let client_tcp = Netstack.Stack.tcp client_stack in
  let client_arp = Netstack.Stack.arp client_stack in
  let client_mac = Netstack.Stack.mac client_stack in
  let client_addr = Netstack.Stack.address client_stack in

  (* -- the storm -- *)
  (* Small receive rings: a storm appliance serves one request, and 10⁴
     vifs at the default 511 posted credits would be ~5M live grant-table
     entries — GC marking cost that swamps the engine. 64 slots still
     absorb far more burst than one connection generates. *)
  let template =
    Core.Boot_spec.make ~backend_dom:w.World.dom0 ~bridge:w.World.bridge
      ~config:(Core.Appliance.web_server ())
      ~quiet_net:true ~rx_slots:64 ()
  in
  let body = "storm" in
  let t0 = Engine.Sim.now sim in
  let names = Array.init n (Printf.sprintf "storm.%d") in
  let ready = Array.make n (-1) in
  let ttfr = Array.make n (-1) in
  let handles = Array.make n None in
  for i = 0 to n - 1 do
    P.async (fun () ->
        Core.Appliance.start w.World.hv w.World.toolstack
          (Core.Boot_spec.clone template ~name:names.(i)
             ~ip:{ Netstack.Ipv4.address = ip_of_index i; netmask = mask8; gateway = None }
             ())
          ~main:(fun h ->
            Core.Exporter.mount h ~port:9100;
            let dom = Handle.domain h in
            let srv =
              Apps.Http.create sim ~dom
                ~tcp:(Netstack.Stack.tcp (Handle.stack h))
                ~port:80
                (fun _req -> P.return (Uhttp.Http_wire.response ~status:200 body))
            in
            Handle.on_drain h (fun () -> Apps.Http.drain srv);
            Handle.stopped h >>= fun () -> P.return 0)
        >>= fun h ->
        ready.(i) <- Engine.Sim.now sim - t0;
        handles.(i) <- Some h;
        (* static ARP, both directions: no resolution broadcasts *)
        let shard_stack = Handle.stack h in
        Netstack.Arp.add_static (Netstack.Stack.arp shard_stack) ~ip:client_addr ~mac:client_mac;
        Netstack.Arp.add_static client_arp ~ip:(Handle.address h)
          ~mac:(Netstack.Stack.mac shard_stack);
        (* cold start as the user sees it: first request races the rest
           of the storm for dom0's backend CPU, exactly like real vif
           softirq work *)
        P.catch
          (fun () ->
            Apps.Http_client.get_once client_tcp ~dst:(Handle.address h) ~port:80 "/"
            >>= fun resp ->
            if resp.Uhttp.Http_wire.status = 200 then ttfr.(i) <- Engine.Sim.now sim - t0;
            P.return ())
          (fun _ -> P.return ()))
  done;
  Engine.Sim.run sim;
  at_peak ();
  let boot_window_ns = Array.fold_left max 0 ready in

  (* -- the reap: everything back to zero -- *)
  let reap_start = Engine.Sim.now sim in
  Array.iter (function Some h -> ignore (Handle.shutdown h) | None -> ()) handles;
  Engine.Sim.run sim;
  let reap_ns = Engine.Sim.now sim - reap_start in

  let ttfrs = Array.to_list ttfr |> List.filter (fun v -> v >= 0) |> List.map float_of_int in
  let ok = List.length ttfrs in
  {
    bs_n = n;
    bs_ok = ok;
    bs_failed = n - ok;
    bs_boot_window_ns = boot_window_ns;
    bs_boots_per_sec =
      (if boot_window_ns > 0 then float_of_int n /. (float_of_int boot_window_ns /. 1e9)
       else 0.0);
    bs_ttfr_p50_ns = (if ttfrs = [] then 0.0 else Engine.Stats.percentile 50.0 ttfrs);
    bs_ttfr_p99_ns = (if ttfrs = [] then 0.0 else Engine.Stats.percentile 99.0 ttfrs);
    bs_reap_ns = reap_ns;
    bs_domains_left = Xensim.Hypervisor.domain_count w.World.hv;
    bs_schedule =
      List.init n (fun i -> { e_name = names.(i); e_ready_ns = ready.(i); e_ttfr_ns = ttfr.(i) });
  }
