let dns_appliance ?(aslr_seed = 0xd15) () =
  Config.make ~app_name:"dns-appliance"
    ~roots:[ "dns"; "dhcp" ]
    ~bindings:
      [
        Config.static "zone_origin" (Config.String "example.org");
        Config.static "zone_file" (Config.String "/zones/example.org");
        Config.dynamic "ip" (Config.String "dhcp");
      ]
    ~aslr_seed ~app_text_bytes:(6 * 1024) ~app_loc:450 ()

let web_server ?(aslr_seed = 0x3eb) () =
  Config.make ~app_name:"web-server"
    ~roots:[ "http"; "btree"; "json"; "xml"; "css"; "cryptokit"; "fat32" ]
    ~bindings:
      [
        Config.static "port" (Config.Int 80);
        Config.static "ip" (Config.Ip (Netstack.Ipaddr.v4 10 0 0 2));
      ]
    ~aslr_seed ~app_text_bytes:(10 * 1024) ~app_loc:900 ()

let openflow_switch ?(aslr_seed = 0x0f5) () =
  Config.make ~app_name:"openflow-switch"
    ~roots:[ "openflow" ]
    ~bindings:[ Config.static "controller" (Config.Ip (Netstack.Ipaddr.v4 10 0 0 100)) ]
    ~aslr_seed ~app_text_bytes:(7 * 1024) ~app_loc:520 ()

let openflow_controller ?(aslr_seed = 0x0fc) () =
  Config.make ~app_name:"openflow-controller"
    ~roots:[ "openflow" ]
    ~bindings:[ Config.static "listen_port" (Config.Int 6633) ]
    ~aslr_seed ~app_text_bytes:(6 * 1024) ~app_loc:420 ()

let monitor_appliance ?(aslr_seed = 0x0b5) () =
  Config.make ~app_name:"monitor"
    ~roots:[ "http"; "json" ]
    ~bindings:[ Config.static "scrape_interval_ms" (Config.Int 100) ]
    ~aslr_seed ~app_text_bytes:(5 * 1024) ~app_loc:380 ()

let lb_appliance ?(aslr_seed = 0x1b0) () =
  Config.make ~app_name:"lb"
    ~roots:[ "http"; "json" ]
    ~bindings:[ Config.static "listen_port" (Config.Int 80) ]
    ~aslr_seed ~app_text_bytes:(4 * 1024) ~app_loc:320 ()

let table2 () =
  [
    ("DNS", dns_appliance ());
    ("Web Server", web_server ());
    ("OpenFlow switch", openflow_switch ());
    ("OpenFlow controller", openflow_controller ());
  ]

(* The network attachment is the backend's choice (the whole point of
   the functorized stack), made by the connect step of the spec's backend
   value, so this module names no backend and links none. *)
type networked = { unikernel : Unikernel.t; net : Backend.net }

let stack n = n.net.Backend.stack
let netif n = n.net.Backend.netif
let address n = Netstack.Stack.address (stack n)

(* ---- lifecycle handles ----

   [start] hands back a first-class handle instead of the bare network
   plumbing: the paper's elasticity story needs domains that can be
   retired as cheaply as they boot, and a promise of a [networked] gives
   no way to stop one. The handle owns the teardown path — immediate
   [shutdown] or graceful [drain] — and undoes at death everything boot
   did: service-directory advertisements are withdrawn and the vif leaves
   the bridge, so monitors stop scraping the corpse and health checks
   fail fast. *)

module Handle = struct
  type status = Running | Draining | Stopped

  type t = {
    h_networked : networked;
    h_hv : Xensim.Hypervisor.t;
    h_spec : Boot_spec.t;
    mutable h_status : status;
    mutable h_drain_hooks : (unit -> unit Mthread.Promise.t) list;
    mutable h_ads : string list;  (* service-directory names to withdraw at death *)
    h_stopped : unit Mthread.Promise.t;
    h_stopped_w : unit Mthread.Promise.u;
  }

  let networked t = t.h_networked
  let unikernel t = t.h_networked.unikernel
  let domain t = t.h_networked.unikernel.Unikernel.domain
  let status t = t.h_status
  let stack t = stack t.h_networked
  let netif t = netif t.h_networked
  let address t = address t.h_networked
  let device t = t.h_networked.net.Backend.device
  let name t = t.h_spec.Boot_spec.config.Config.app_name
  let spec t = t.h_spec
  let stopped t = t.h_stopped
  let on_drain t f = t.h_drain_hooks <- f :: t.h_drain_hooks

  let advertise t ~port =
    let ad = Printf.sprintf "%s.%d" (name t) (domain t).Xensim.Domain.id in
    t.h_ads <- ad :: t.h_ads;
    Netsim.Bridge.advertise t.h_spec.Boot_spec.bridge ~name:ad
      ~ip:(Netstack.Ipaddr.to_string (address t))
      ~port

  let emit_lifecycle t what =
    if Trace.enabled () then
      Trace.emit
        ~dom:(domain t).Xensim.Domain.id
        ~payload:[ ("appliance", Trace.String (name t)) ]
        ~cat:Trace.Boot what

  (* Immediate stop: withdraw every advertisement, unplug the vif (frames
     in flight vanish, exactly as for a destroyed domain), and tear the
     domain down with exit code 0. Idempotent. *)
  let shutdown t =
    (match t.h_status with
    | Stopped -> ()
    | Running | Draining ->
      t.h_status <- Stopped;
      List.iter (fun ad -> Netsim.Bridge.withdraw t.h_spec.Boot_spec.bridge ~name:ad) t.h_ads;
      Netsim.Bridge.detach t.h_spec.Boot_spec.bridge (Devices.Netif.nic (netif t));
      Devices.Netif.disconnect (netif t);
      emit_lifecycle t "appliance.shutdown";
      Xensim.Hypervisor.destroy ~exit_code:0 t.h_hv (domain t);
      Mthread.Promise.wakeup t.h_stopped_w ());
    Mthread.Promise.return ()

  (* Graceful stop: leave the directory at once (no new discovery), ask
     every registered server to drain — stop accepting, finish requests
     in flight byte-identically — and only then shut the domain down.
     Idempotent; a second call (or a call racing [shutdown]) just waits
     for the stop. *)
  let drain t =
    match t.h_status with
    | Stopped -> Mthread.Promise.return ()
    | Draining -> t.h_stopped
    | Running ->
      t.h_status <- Draining;
      List.iter (fun ad -> Netsim.Bridge.withdraw t.h_spec.Boot_spec.bridge ~name:ad) t.h_ads;
      emit_lifecycle t "appliance.drain";
      let hooks = List.rev t.h_drain_hooks in
      Mthread.Promise.bind
        (Mthread.Promise.join (List.map (fun f -> f ()) hooks))
        (fun () -> shutdown t)
end

let start hv ts (spec : Boot_spec.t) ~main =
  let open Mthread.Promise in
  let result, result_waker = wait () in
  let boot_span = Trace.span ~cat:Trace.Boot "appliance.boot" in
  bind
    (Unikernel.boot hv ts ~mode:spec.Boot_spec.mode ~target:spec.Boot_spec.backend.Backend.target
       ~plan:(Lazy.force spec.Boot_spec.plan) ~config:spec.Boot_spec.config ~mem_mib:spec.Boot_spec.mem_mib
       ~main:(fun unikernel ->
         let dom = unikernel.Unikernel.domain in
         let nic =
           Netsim.Bridge.new_nic spec.Boot_spec.bridge
             ~mac:(Netsim.mac_of_int (0x1000 + dom.Xensim.Domain.id))
             ()
         in
         let cfg =
           match spec.Boot_spec.ip with
           | Some static -> Netstack.Stack.Static static
           | None -> Netstack.Stack.Dhcp
         in
         let announce = not spec.Boot_spec.quiet_net in
         bind
           (spec.Boot_spec.backend.Backend.connect hv ~dom ~backend_dom:spec.Boot_spec.backend_dom
              ~nic ~rx_slots:spec.Boot_spec.rx_slots ~announce cfg)
           (fun net ->
             let networked = { unikernel; net } in
             let stopped, stopped_w = wait () in
             let handle =
               {
                 Handle.h_networked = networked;
                 h_hv = hv;
                 h_spec = spec;
                 h_status = Handle.Running;
                 h_drain_hooks = [];
                 h_ads = [];
                 h_stopped = stopped;
                 h_stopped_w = stopped_w;
               }
             in
             Trace.finish boot_span;
             wakeup result_waker handle;
             main handle))
       ())
    (fun _unikernel -> result)
