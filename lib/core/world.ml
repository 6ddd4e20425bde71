module P = Mthread.Promise

type t = {
  sim : Engine.Sim.t;
  hv : Xensim.Hypervisor.t;
  dom0 : Xensim.Domain.t;
  bridge : Netsim.Bridge.t;
  toolstack : Xensim.Toolstack.t;
}

let running hv ~name ~mem_mib ~platform ?vcpus () =
  let d = Xensim.Hypervisor.create_domain hv ~name ~mem_mib ~platform ?vcpus () in
  d.Xensim.Domain.state <- Xensim.Domain.Running;
  d

(* The bridge splits the simulator's PRNG, so it is made after dom0 and
   before anything that draws from it. *)
let create ?(seed = 42) ?(seal_patch = true) ?(static_fdb = false) () =
  let sim = Engine.Sim.create ~seed () in
  let hv = Xensim.Hypervisor.create ~seal_patch sim in
  let dom0 = running hv ~name:"dom0" ~mem_mib:512 ~platform:Platform.linux_pv () in
  let bridge = Netsim.Bridge.create ~static_fdb sim in
  { sim; hv; dom0; bridge; toolstack = Xensim.Toolstack.create hv }

let static_ip s =
  {
    Netstack.Ipv4.address = Netstack.Ipaddr.of_string s;
    netmask = Netstack.Ipaddr.of_string "255.255.255.0";
    gateway = None;
  }

let domain w ?(platform = Platform.xen_extent) ?vcpus ~name () =
  running w.hv ~name ~mem_mib:64 ~platform ?vcpus ()

type host = {
  dom : Xensim.Domain.t;
  nic : Netsim.Nic.t;
  netif : Devices.Netif.t;
  stack : Netstack.Stack.t;
}

let run w p = P.run w.sim p

let host w ?platform ?vcpus ?(account_cpu = true) ?bandwidth_bps ?latency_ns ?announce ~name ~ip () =
  let dom = domain w ?platform ?vcpus ~name () in
  let nic =
    Netsim.Bridge.new_nic w.bridge ?bandwidth_bps ?latency_ns
      ~mac:(Netsim.mac_of_int (100 + dom.Xensim.Domain.id))
      ()
  in
  let netif = Devices.Netif.connect w.hv ~dom ~backend_dom:w.dom0 ~nic () in
  let cfg = Netstack.Stack.Static (static_ip ip) in
  let stack =
    run w
      (if account_cpu then Netstack.Stack.create w.sim ~dom ?announce ~netif cfg
       else Netstack.Stack.create w.sim ?announce ~netif cfg)
  in
  { dom; nic; netif; stack }

let appliance w ~config ~ip ~main () =
  let spec = Boot_spec.make ~backend_dom:w.dom0 ~bridge:w.bridge ~config ~ip:(static_ip ip) () in
  run w (Appliance.start w.hv w.toolstack spec ~main)
