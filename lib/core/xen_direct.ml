(* The deploy target, Target.Xen_direct (paper §3.4): the sealed
   unikernel's own netstack on a PV vif whose backend is the spec's
   [backend_dom]. Boot_spec's default. *)
let backend =
  {
    Backend.target = Target.Xen_direct;
    connect =
      (fun hv ~dom ~backend_dom ~nic ~rx_slots ~announce cfg ->
        let netif = Devices.Netif.connect hv ~dom ~backend_dom ~nic ~rx_slots () in
        Backend.netstack hv ~dom ~announce ~netif cfg);
  }
