(* Target.Posix_direct, step 2 of the developer workflow (paper §5.4): a
   host process running the unikernel netstack over a direct attachment
   charged the tuntap copy and syscall per frame. *)
let backend =
  {
    Backend.target = Target.Posix_direct;
    connect =
      (fun hv ~dom ~backend_dom:_ ~nic ~rx_slots:_ ~announce cfg ->
        let netif = Devices.Netif.connect_direct ~dom ~nic ~frame_tax:true () in
        Backend.netstack hv ~dom ~announce ~netif cfg);
  }
