(* boot_storm: a storm of concurrent cold starts of web unikernels
   through [Core.Appliance.start], each answering one request from a
   client that asks the moment its stack is up, then a reap of every
   appliance back to dom0 and the client. Chosen because the control
   plane does most of the work (toolstack, xenstore, grant tables, event
   channels, the bridge directory) and the engine and GC run at scale
   while the datapath is nearly idle.

   Each appliance serves a seeded body naming itself, so an answer from
   the wrong appliance is caught. Latency is time to first response,
   from the start call. A warm-up storm of one twentieth the size, reaped
   the same way, runs during set-up. *)

module P = Mthread.Promise
module Handle = World.Handle

let domains = 2000

(* Start calls are spread over this much virtual time, at seeded instants. *)
let spread_ns = Engine.Sim.ms 10

(* Before and after the reap the engine runs until its queue drains, or
   for this long. *)
let idle_cap_ns = Engine.Sim.sec 120

(* 10.b.c.d with d in 1..250: unique per index, never the client's address. *)
let ip_of_index i = Netstack.Ipaddr.v4 10 (1 + (i / 62500)) (i / 250 mod 250) (1 + (i mod 250))

(* The measuring client: direct-attached (a PV receive ring would drop
   the storm's bursts and measure its own retransmissions) and charging
   no vCPU, so dom0's backend stays the honest bottleneck. *)
let client w =
  let dom =
    Xensim.Hypervisor.create_domain w.World.hv ~name:"storm-client" ~mem_mib:512
      ~platform:Platform.xen_extent ()
  in
  dom.Xensim.Domain.state <- Xensim.Domain.Running;
  let nic =
    Netsim.Bridge.new_nic w.World.bridge ~mac:(Netsim.mac_of_int (100 + dom.Xensim.Domain.id)) ()
  in
  World.jitter w nic;
  let netif = Devices.Netif.connect_direct ~dom ~nic () in
  let stack =
    P.run w.World.sim
      (Netstack.Stack.create w.World.sim ~announce:false ~netif
         (Netstack.Stack.Static (World.ip_config (Netstack.Ipaddr.v4 10 255 0 1))))
  in
  World.adopt w { World.netif; stack };
  stack

type storm = {
  answered : int;
  bytes : int;
  window_ns : int;  (* storm start to the last answer *)
  ttfr : Stats.Samples.t;
  boots : Stats.Samples.t;  (* start call to stack up *)
}

(* Boot [n] appliances numbered from [first], query each once, reap them
   all, and step until the engine is idle. *)
let storm w d ~rng ~template ~client ~first ~n =
  let tcp = Netstack.Stack.tcp client in
  let client_addr = Netstack.Stack.address client and client_mac = Netstack.Stack.mac client in
  let t0 = World.now w in
  let handles = Array.make n None in
  let ttfr = Stats.Samples.create () and boots = Stats.Samples.create () in
  let finished = ref 0 and answered = ref 0 and bytes = ref 0 and last = ref t0 in
  for i = 0 to n - 1 do
    let idx = first + i in
    let body = Printf.sprintf "storm.%d/%08x" idx (Engine.Prng.int rng 0x3fffffff) in
    let start = t0 + Engine.Prng.int rng spread_ns in
    let spec =
      Core.Boot_spec.clone template ~name:(Printf.sprintf "storm.%d" idx)
        ~ip:(World.ip_config (ip_of_index idx))
        ()
    in
    let main h =
      ignore
        (Core.Apps.Net.Http.create w.World.sim ~dom:(Handle.domain h)
           ~tcp:(Netstack.Stack.tcp (Handle.stack h))
           ~port:80
           (fun _req -> P.return (Uhttp.Http_wire.response ~status:200 body)));
      P.bind (Handle.stopped h) (fun () -> P.return 0)
    in
    let cold_start () =
      let root = Spans.start ~req:idx ~now:start "cold_start" in
      let boot = Spans.start ~parent:root ~req:idx ~now:start "boot" in
      P.bind (Core.Appliance.start w.World.hv w.World.ts spec ~main) (fun h ->
          let now = World.now w in
          Spans.finish boot ~now;
          Stats.Samples.add boots (now - start);
          handles.(i) <- Some h;
          World.jitter w (Devices.Netif.nic (Handle.netif h));
          (* static ARP both ways: no resolution broadcasts in the storm *)
          let stack = Handle.stack h in
          Netstack.Arp.add_static (Netstack.Stack.arp stack) ~ip:client_addr ~mac:client_mac;
          Netstack.Arp.add_static (Netstack.Stack.arp client) ~ip:(Handle.address h)
            ~mac:(Netstack.Stack.mac stack);
          let first_response = Spans.start ~parent:root ~req:idx ~now "first_response" in
          P.bind (Core.Apps.Net.Http_client.get_once tcp ~dst:(Handle.address h) ~port:80 "/")
            (fun resp ->
              let now = World.now w in
              Spans.finish first_response ~now;
              Spans.finish root ~now;
              let open Uhttp.Http_wire in
              if resp.status = 200 && String.equal resp.resp_body body then begin
                incr answered;
                bytes := !bytes + String.length body;
                last := now;
                Stats.Samples.add ttfr (now - start)
              end;
              P.return ()))
    in
    ignore
      (Engine.Sim.at w.World.sim ~time:start (fun () ->
           P.async (fun () ->
               P.finalize
                 (fun () -> P.catch cold_start (fun _ -> P.return ()))
                 (fun () ->
                   incr finished;
                   P.return ()))))
  done;
  (* Every appliance has answered; let the last connections finish
     closing before the reap, so no appliance is torn down with frames
     in flight to it (the library raises on such a teardown). *)
  let idle () =
    let cap = World.now w + idle_cap_ns in
    World.step_until w d (fun () -> World.now w > cap)
  in
  World.step_until w d (fun () -> !finished >= n);
  idle ();
  Array.iter
    (function
      | Some h ->
        World.retire w (World.endpoint_of h);
        ignore (Handle.shutdown h)
      | None -> ())
    handles;
  idle ();
  { answered = !answered; bytes = !bytes; window_ns = !last - t0; ttfr; boots }

let setup ~seed ~scale =
  let rng = Engine.Prng.create ~seed () in
  let w = World.create ~static_fdb:true ~dom0_mib:4096 ~seed:(Engine.Prng.int rng 0x3fffffff) () in
  let client = client w in
  (* Small receive rings: a storm appliance serves one request, and
     thousands of vifs at the default credit are millions of live grants. *)
  let template =
    Core.Boot_spec.make ~backend_dom:w.World.dom0 ~bridge:w.World.bridge
      ~config:(Core.Appliance.web_server ()) ~quiet_net:true ~rx_slots:64 ()
  in
  let n = max 1 (int_of_float (float_of_int domains *. scale)) in
  let warm = max 1 (n / 20) in
  ignore (storm w (World.new_drive ()) ~rng ~template ~client ~first:0 ~n:warm);
  let measure d =
    let s = storm w d ~rng ~template ~client ~first:warm ~n in
    let boots = Stats.Samples.sorted s.boots in
    let ms p = float_of_int (Stats.nearest_rank boots p) /. 1e6 in
    (* one more operation: the reap must leave exactly dom0 and the client *)
    let reaped = Xensim.Hypervisor.domain_count w.World.hv = 2 in
    {
      Workload.attempted = n + 1;
      failed = n - s.answered + if reaped then 0 else 1;
      bytes = s.bytes;
      window_ns = s.window_ns;
      latencies = s.ttfr;
      layer = [ ("core.boot_p50_ms", ms 50.); ("core.boot_p99_ms", ms 99.) ];
    }
  in
  { Workload.world = w; server = w.World.dom0; measure }

let workload = { Workload.name = "boot_storm"; setup }
