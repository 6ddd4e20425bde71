(* A network backend (paper §5.4): the device configuration an appliance
   is built against, as a value. Each of the three lives in its own unit
   (Xen_direct, Posix_direct, Posix_sockets), so an appliance links only
   the backend it names. *)

(* A booted appliance's network attachment: the vif (the guest's, or the
   modelled host kernel's), the netstack (the appliance's own, or the
   host kernel's beneath the sockets) and the stack its servers are
   applied to. *)
type net = { netif : Devices.Netif.t; stack : Netstack.Stack.t; device : Device_sig.stack }

(* [target] is what Specialize links and Unikernel.boot builds;
   [connect] attaches [dom] to [nic] and brings its stack up, with
   [backend_dom], [rx_slots] and [announce] as in Boot_spec. *)
type t = {
  target : Target.t;
  connect :
    Xensim.Hypervisor.t ->
    dom:Xensim.Domain.t ->
    backend_dom:Xensim.Domain.t ->
    nic:Netsim.Nic.t ->
    rx_slots:int ->
    announce:bool ->
    Netstack.Stack.ip_config ->
    net Mthread.Promise.t;
}

(* The unikernel netstack on [netif]: the connect step's tail for both
   direct backends. *)
let netstack hv ~dom ~announce ~netif cfg =
  Mthread.Promise.bind
    (Netstack.Stack.create hv.Xensim.Hypervisor.sim ~dom ~announce ~netif cfg)
    (fun stack ->
      Mthread.Promise.return
        { netif; stack; device = Device_sig.Stack ((module Netstack.Device), stack) })
