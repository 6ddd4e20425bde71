(* Target.Posix_sockets, step 1 of the developer workflow (paper §5.4):
   a host process over the host kernel's sockets, its servers applied to
   Hostnet.Device. The only unit in Core that names Hostnet. *)
let backend =
  {
    Backend.target = Target.Posix_sockets;
    connect =
      (fun hv ~dom ~backend_dom:_ ~nic ~rx_slots:_ ~announce:_ cfg ->
        Mthread.Promise.bind (Hostnet.create hv.Xensim.Hypervisor.sim ~dom ~nic cfg) (fun h ->
            Mthread.Promise.return
              {
                Backend.netif = Hostnet.netif h;
                stack = Hostnet.kernel_stack h;
                device = Device_sig.Stack ((module Hostnet.Device), h);
              }));
  }
