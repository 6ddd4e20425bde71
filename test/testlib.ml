(* Shared fixtures: a simulated machine with a hypervisor, a bridge, and
   helpers to spin up networked guests, shared by the integration tests. *)

let check = Alcotest.check
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* A test world: simulator, hypervisor, dom0, bridge. *)
type world = {
  sim : Engine.Sim.t;
  hv : Xensim.Hypervisor.t;
  dom0 : Xensim.Domain.t;
  bridge : Netsim.Bridge.t;
}

let make_world ?(seed = 42) ?(seal_patch = true) () =
  let sim = Engine.Sim.create ~seed () in
  let hv = Xensim.Hypervisor.create ~seal_patch sim in
  let dom0 =
    Xensim.Hypervisor.create_domain hv ~name:"dom0" ~mem_mib:512 ~platform:Platform.linux_pv ()
  in
  dom0.Xensim.Domain.state <- Xensim.Domain.Running;
  let bridge = Netsim.Bridge.create sim in
  { sim; hv; dom0; bridge }

type host = {
  dom : Xensim.Domain.t;
  nic : Netsim.Nic.t;
  netif : Devices.Netif.t;
  stack : Netstack.Stack.t;
}

(* Bring up a guest with a static-IP stack; runs the simulator until the
   stack is ready. *)
(* [account_cpu:false] detaches the stack from the domain's vCPU model —
   an infinitely fast load generator, as the paper's client machines are
   relative to the appliance under test. *)
let make_host ?(platform = Platform.xen_extent) ?(vcpus = 1) ?(account_cpu = true) ?bandwidth_bps
    ?latency_ns ?announce w ~name ~ip () =
  let dom = Xensim.Hypervisor.create_domain w.hv ~name ~mem_mib:64 ~platform ~vcpus () in
  dom.Xensim.Domain.state <- Xensim.Domain.Running;
  let nic =
    Netsim.Bridge.new_nic w.bridge ?bandwidth_bps ?latency_ns
      ~mac:(Netsim.mac_of_int (100 + dom.Xensim.Domain.id))
      ()
  in
  let netif = Devices.Netif.connect w.hv ~dom ~backend_dom:w.dom0 ~nic () in
  let cfg =
    Netstack.Stack.Static
      {
        Netstack.Ipv4.address = Netstack.Ipaddr.of_string ip;
        netmask = Netstack.Ipaddr.of_string "255.255.255.0";
        gateway = None;
      }
  in
  let stack =
    if account_cpu then Mthread.Promise.run w.sim (Netstack.Stack.create w.sim ~dom ?announce ~netif cfg)
    else Mthread.Promise.run w.sim (Netstack.Stack.create w.sim ?announce ~netif cfg)
  in
  { dom; nic; netif; stack }

(* Run a promise to completion inside a world. *)
let run w p = Mthread.Promise.run w.sim p

let bs = Bytestruct.of_string

(* Deterministic pseudo-random payload. *)
let pattern n =
  String.init n (fun i -> Char.chr ((i * 131 + i / 251) land 0xff))

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* The pinned capture scenario (shared with test/golden/gen_capture.exe). *)
module Capture_scenario = Capture_scenario
