(* mirage_sim ss: live connection introspection, `ss -tuoni` style.

   Boots the same web-server + client scenario as `mirage_sim pcap`
   (HTTP on :80, UDP echo on :53) and snapshots both stacks' socket
   tables — once mid-run while connections are in flight, once at the
   end. Each row carries what the paper's operators would get from ss
   on a Linux guest: state, queue depths, cwnd/ssthresh, srtt/rto,
   retransmit count and age. [--loss] makes the retx column move. *)

open Cmdliner
module P = Mthread.Promise

let ( >>= ) = P.bind

let static_ip s =
  {
    Netstack.Ipv4.address = Netstack.Ipaddr.of_string s;
    netmask = Netstack.Ipaddr.of_string "255.255.255.0";
    gateway = None;
  }

let run_ss seed duration_ms loss =
  Trace.enable ();
  let sim = Engine.Sim.create ~seed () in
  let hv = Xensim.Hypervisor.create sim in
  let dom0 =
    Xensim.Hypervisor.create_domain hv ~name:"dom0" ~mem_mib:2048 ~platform:Platform.linux_pv ()
  in
  dom0.Xensim.Domain.state <- Xensim.Domain.Running;
  let bridge = Netsim.Bridge.create sim in
  let ts = Xensim.Toolstack.create hv in
  let duration_ns = Engine.Sim.ms duration_ms in

  let router = Uhttp.Router.create () in
  Uhttp.Router.add router Uhttp.Http_wire.GET "/" (fun _ _ ->
      P.return (Uhttp.Http_wire.response ~status:200 (String.make 4096 'x')));
  let server =
    P.run sim
      (Core.Appliance.start hv ts
         (Core.Boot_spec.make ~backend_dom:dom0 ~bridge
            ~config:(Core.Appliance.web_server ~aslr_seed:0x55 ())
            ~ip:(static_ip "10.0.0.10") ())
         ~main:(fun h ->
           let stack = Core.Appliance.Handle.stack h in
           ignore
             (Core.Apps.Net.Http.of_router sim
                ~dom:(Core.Appliance.Handle.domain h)
                ~tcp:(Netstack.Stack.tcp stack) ~port:80 router);
           let udp = Netstack.Stack.udp stack in
           Netstack.Udp.listen udp ~port:53 (fun ~src ~src_port ~dst_port:_ ~payload ->
               P.async (fun () ->
                   Netstack.Udp.sendto udp ~src_port:53 ~dst:src ~dst_port:src_port payload));
           P.sleep sim (duration_ns * 2) >>= fun () -> P.return 0))
  in
  (if loss > 0.0 then
     let nic = Devices.Netif.nic (Core.Appliance.netif (Core.Appliance.Handle.networked server)) in
     Netsim.Bridge.set_loss bridge nic loss);

  let client_dom =
    Xensim.Hypervisor.create_domain hv ~name:"client" ~mem_mib:256 ~platform:Platform.xen_extent ()
  in
  client_dom.Xensim.Domain.state <- Xensim.Domain.Running;
  let client_nic =
    Netsim.Bridge.new_nic bridge ~mac:(Netsim.mac_of_int (200 + client_dom.Xensim.Domain.id)) ()
  in
  let client_netif = Devices.Netif.connect hv ~dom:client_dom ~backend_dom:dom0 ~nic:client_nic () in
  let client_stack =
    P.run sim
      (Netstack.Stack.create sim ~netif:client_netif (Netstack.Stack.Static (static_ip "10.0.0.9")))
  in
  let dst = Core.Appliance.Handle.address server in
  let rec http_drive () =
    P.catch
      (fun () ->
        P.with_timeout sim (Engine.Sim.ms 500) (fun () ->
            Core.Apps.Net.Http_client.get_once (Netstack.Stack.tcp client_stack) ~dst ~port:80 "/")
        >>= fun _ -> P.return ())
      (fun _ -> P.return ())
    >>= fun () ->
    P.sleep sim (Engine.Sim.ms 5) >>= fun () -> http_drive ()
  in
  P.async http_drive;
  let udp = Netstack.Stack.udp client_stack in
  Netstack.Udp.listen udp ~port:5353 (fun ~src:_ ~src_port:_ ~dst_port:_ ~payload:_ -> ());
  let rec udp_drive n =
    Netstack.Udp.sendto udp ~src_port:5353 ~dst ~dst_port:53
      (Bytestruct.of_string (Printf.sprintf "q%d" n))
    >>= fun () ->
    P.sleep sim (Engine.Sim.ms 20) >>= fun () -> udp_drive (n + 1)
  in
  P.async (fun () -> udp_drive 0);

  (* Snapshot mid-run (connections in flight) and at the end. *)
  let snapshots = Buffer.create 2048 in
  let snap label =
    Buffer.add_string snapshots
      (Printf.sprintf "---- %s (t=%.1f ms) ----\n" label
         (Engine.Sim.to_ms (Engine.Sim.now sim)));
    Buffer.add_string snapshots
      (Printf.sprintf "[server %s]\n%s"
         (Netstack.Ipaddr.to_string dst)
         (Netstack.Ss.render (Core.Appliance.Handle.stack server)));
    Buffer.add_string snapshots
      (Printf.sprintf "[client %s]\n%s\n"
         (Netstack.Ipaddr.to_string (Netstack.Stack.address client_stack))
         (Netstack.Ss.render client_stack))
  in
  P.async (fun () -> P.sleep sim (duration_ns / 2) >>= fun () -> P.return (snap "mid-run"));
  let started = Engine.Sim.now sim in
  Engine.Sim.run ~until:(started + duration_ns) sim;
  snap "end of run";
  print_string (Buffer.contents snapshots);
  Trace.quiesce ()

let cmd =
  let doc = "Boot a client/server scenario and render ss-style socket tables" in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Simulation PRNG seed.") in
  let duration =
    Arg.(value & opt int 500 & info [ "duration-ms" ] ~docv:"MS" ~doc:"Virtual run length.")
  in
  let loss =
    Arg.(
      value & opt float 0.0
      & info [ "loss" ] ~docv:"P"
          ~doc:"Uniform loss probability on the server link (makes retx move).")
  in
  Cmd.v (Cmd.info "ss" ~doc) Term.(const run_ss $ seed $ duration $ loss)
