include Machine

let static_ip s =
  {
    Netstack.Ipv4.address = Netstack.Ipaddr.of_string s;
    netmask = Netstack.Ipaddr.of_string "255.255.255.0";
    gateway = None;
  }

type host = {
  dom : Xensim.Domain.t;
  nic : Netsim.Nic.t;
  netif : Devices.Netif.t;
  stack : Netstack.Stack.t;
}

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
