(* Worlds built only through the library's public APIs: a simulator, a
   hypervisor with dom0, one bridge and a toolstack, plus the hosts and
   appliances a workload adds. The world keeps the devices whose layer
   counters the per-layer table reads; a workload that tears appliances
   down folds their totals in first ([retire]). The benchmark steps the
   engine itself ([run_until]), counting events as it goes. *)

module P = Mthread.Promise
module Handle = Core.Appliance.Handle

type endpoint = { netif : Devices.Netif.t; stack : Netstack.Stack.t }

(* Layer totals over a set of endpoints. *)
type counts = {
  mutable segments : int;
  mutable retransmissions : int;
  mutable rto_fires : int;
  mutable ooo_evictions : int;
  mutable datagrams : int;
  mutable rx_dropped : int;
  mutable outstanding : int;
  mutable arena_bytes : int;
}

type t = {
  sim : Engine.Sim.t;
  hv : Xensim.Hypervisor.t;
  dom0 : Xensim.Domain.t;
  bridge : Netsim.Bridge.t;
  ts : Xensim.Toolstack.t;
  mutable live : endpoint list;
  retired : counts;
}

(* Exceptions escaping detached threads: each one is a failed operation
   the workload did not see, so the repetition reports it. *)
let async_failures = ref 0

let () =
  P.set_async_exception_hook (fun e ->
      prerr_endline ("exception in a detached thread: " ^ Printexc.to_string e);
      incr async_failures)

let zero () =
  {
    segments = 0;
    retransmissions = 0;
    rto_fires = 0;
    ooo_evictions = 0;
    datagrams = 0;
    rx_dropped = 0;
    outstanding = 0;
    arena_bytes = 0;
  }

let create ?(static_fdb = false) ?(dom0_mib = 2048) ~seed () =
  let sim = Engine.Sim.create ~seed () in
  let hv = Xensim.Hypervisor.create sim in
  let dom0 =
    Xensim.Hypervisor.create_domain hv ~name:"dom0" ~mem_mib:dom0_mib ~platform:Platform.linux_pv ()
  in
  dom0.Xensim.Domain.state <- Xensim.Domain.Running;
  let bridge = Netsim.Bridge.create ~static_fdb sim in
  { sim; hv; dom0; bridge; ts = Xensim.Toolstack.create hv; live = []; retired = zero () }

(* Every link delays each frame by up to this much, drawn from the
   seeded fault PRNG, so runs with different seeds are not lock-step
   replicas of one schedule. It is below a full frame's serialisation
   time at 10 Gb/s, so it never reorders one sender's data segments. *)
let jitter_ns = 200

let jitter w nic = Netsim.Bridge.set_faults w.bridge nic (Netsim.Faults.make ~jitter_ns ())
let now w = Engine.Sim.now w.sim
let adopt w e = w.live <- e :: w.live
let netmask = Netstack.Ipaddr.v4 255 0 0 0

let ip_config address = { Netstack.Ipv4.address; netmask; gateway = None }

(* A plain guest with a PV vif through dom0. [account_cpu:false] makes it
   an infinitely fast load generator: its stack charges no vCPU. *)
let host w ?(platform = Platform.xen_extent) ?(account_cpu = true)
    ?(bandwidth_bps = 1_000_000_000) ?(latency_ns = 30_000) ~name ~ip () =
  let dom = Xensim.Hypervisor.create_domain w.hv ~name ~mem_mib:256 ~platform () in
  dom.Xensim.Domain.state <- Xensim.Domain.Running;
  let nic =
    Netsim.Bridge.new_nic w.bridge ~bandwidth_bps ~latency_ns
      ~mac:(Netsim.mac_of_int (100 + dom.Xensim.Domain.id))
      ()
  in
  jitter w nic;
  let netif = Devices.Netif.connect w.hv ~dom ~backend_dom:w.dom0 ~nic () in
  let cfg = Netstack.Stack.Static (ip_config (Netstack.Ipaddr.of_string ip)) in
  let stack =
    P.run w.sim
      (if account_cpu then Netstack.Stack.create w.sim ~dom ~netif cfg
       else Netstack.Stack.create w.sim ~netif cfg)
  in
  adopt w { netif; stack };
  (dom, stack)

let endpoint_of h = { netif = Handle.netif h; stack = Handle.stack h }

(* Boot one appliance through the toolstack and wait until its stack is
   up; returns the handle and the virtual boot time. *)
let appliance w ~config ~ip ~main =
  let spec =
    Core.Boot_spec.make ~backend_dom:w.dom0 ~bridge:w.bridge ~config
      ~ip:(ip_config (Netstack.Ipaddr.of_string ip))
      ()
  in
  let t0 = now w in
  let h = P.run w.sim (Core.Appliance.start w.hv w.ts spec ~main) in
  jitter w (Devices.Netif.nic (Handle.netif h));
  adopt w (endpoint_of h);
  (h, now w - t0)

let add_endpoint c e =
  let tcp = Netstack.Stack.tcp e.stack and udp = Netstack.Stack.udp e.stack in
  let pool = Devices.Netif.pool e.netif in
  c.segments <- c.segments + Netstack.Tcp.segments_sent tcp;
  c.retransmissions <- c.retransmissions + Netstack.Tcp.retransmissions tcp;
  c.rto_fires <- c.rto_fires + Netstack.Tcp.rto_fires tcp;
  c.ooo_evictions <- c.ooo_evictions + Netstack.Tcp.ooo_evictions tcp;
  c.datagrams <- c.datagrams + Netstack.Udp.datagrams_sent udp;
  c.rx_dropped <- c.rx_dropped + Devices.Netif.rx_dropped e.netif;
  c.outstanding <- c.outstanding + Pktbuf.outstanding pool;
  c.arena_bytes <- c.arena_bytes + Pktbuf.bytes_reserved pool

(* Fold the totals of an appliance about to be torn down into the world.
   Short-lived appliances are retired instead of adopted, so a storm of
   them never sits in [live]. *)
let retire w e = add_endpoint w.retired e

(* Retired totals plus the live devices. Buffers a torn-down device had
   in flight are not carried over: [outstanding] counts live devices. *)
let counts w =
  let c = { w.retired with outstanding = 0 } in
  List.iter (add_endpoint c) w.live;
  c

(* ---- stepping ---- *)

type drive = { mutable events : int; mutable pending_max : int }

let new_drive () = { events = 0; pending_max = 0 }

(* Step the engine until [stop ()] holds or the queue drains. *)
let step_until w d stop =
  while (not (stop ())) && Engine.Sim.step w.sim do
    d.events <- d.events + 1;
    if d.events land 1023 = 0 then Calib.tick ();
    let p = Engine.Sim.pending w.sim in
    if p > d.pending_max then d.pending_max <- p
  done

(* Step until virtual time [t]: a marker event at [t] ends the loop. *)
let run_until w d t =
  let reached = ref false in
  ignore (Engine.Sim.at w.sim ~time:t (fun () -> reached := true));
  step_until w d (fun () -> !reached)
