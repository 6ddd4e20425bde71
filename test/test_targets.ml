(* Cross-target equivalence (§5.4 workflow): the same appliance code,
   applied to each backend's device modules, must produce
   byte-identical wire responses on all three targets — only the timing
   signature may differ. An external PV host on the same bridge speaks
   raw UDP/TCP to the appliance, so the bytes compared are exactly what
   would cross the network. *)

open Testlib
module P = Mthread.Promise

let ( >>= ) = P.bind
let appliance_ip = "10.0.0.53"

(* Boots [config] on [backend] and calls [serve dom device] from its
   main: each server below applies its functor once, to whatever stack
   the backend carries. *)
let boot_appliance w ~backend ~config ~serve =
  ignore
    (run w
       (Core.Appliance.start w.hv w.toolstack
          (Core.Boot_spec.make ~backend_dom:w.dom0 ~bridge:w.bridge ~config
             ~ip:(static_ip appliance_ip) ~backend ())
          ~main:(fun h ->
            serve (Core.Appliance.Handle.domain h) (Core.Appliance.Handle.device h);
            P.sleep w.sim (Engine.Sim.sec 3600) >>= fun () -> P.return 0)))

(* ---- DNS: scripted query sequence, raw payload capture ---- *)

let dns_script =
  [
    ("host-1.example.org", 0x1001);
    ("host-7.example.org", 0x1002);
    ("host-42.example.org", 0x1003);
    ("host-7.example.org", 0x1004);
    ("host-199.example.org", 0x1005);
  ]

let dns_run backend =
  let w = create () in
  let db = Dns.Db.of_zone (Dns.Zone.synthesize ~origin:"example.org" ~entries:200) in
  let engine = Dns.Server.Mirage { memoize = true } in
  boot_appliance w ~backend
    ~config:(Core.Appliance.dns_appliance ())
    ~serve:(fun dom (Device_sig.Stack ((module S), stack)) ->
      let module D = Dns.Server.Make (S.Udp) in
      ignore (D.create w.sim ~dom ~udp:(S.udp stack) ~db ~engine ()));
  let client = host w ~platform:Platform.linux_native ~name:"resolver" ~ip:"10.0.0.9" () in
  let udp = Netstack.Stack.udp client.stack in
  let dst = Netstack.Ipaddr.of_string appliance_ip in
  let one (name, id) =
    let sent = Engine.Sim.now w.sim in
    let reply, waker = P.wait () in
    let src_port = 20000 + (id land 0xff) in
    Netstack.Udp.listen udp ~port:src_port (fun ~src:_ ~src_port:_ ~dst_port:_ ~payload ->
        P.wakeup waker (Bytestruct.to_string payload, Engine.Sim.now w.sim - sent));
    Netstack.Udp.sendto udp ~src_port ~dst ~dst_port:53
      (Dns.Dns_wire.encode (Dns.Dns_wire.query ~id (Dns.Dns_name.of_string name) Dns.Dns_wire.A))
    >>= fun () ->
    reply >>= fun r ->
    Netstack.Udp.unlisten udp ~port:src_port;
    P.return r
  in
  let rec go acc = function
    | [] -> P.return (List.rev acc)
    | q :: qs -> one q >>= fun r -> go (r :: acc) qs
  in
  run w (go [] dns_script)

(* ---- HTTP: scripted request sequence over raw TCP ---- *)

let http_script = [ "/"; "/tweets/alice"; "/tweets/bob"; "/" ]

let http_run backend =
  let w = create () in
  let router = Uhttp.Router.create () in
  Uhttp.Router.add router Uhttp.Http_wire.GET "/" (fun _ _ ->
      P.return (Uhttp.Http_wire.response ~status:200 "index"));
  Uhttp.Router.add router Uhttp.Http_wire.GET "/tweets/:user" (fun params _ ->
      P.return (Uhttp.Http_wire.response ~status:200 ("tweets of " ^ List.assoc "user" params)));
  boot_appliance w ~backend
    ~config:(Core.Appliance.web_server ())
    ~serve:(fun dom (Device_sig.Stack ((module S), stack)) ->
      let module H = Uhttp.Server.Make (S.Tcp) in
      ignore (H.of_router w.sim ~dom ~tcp:(S.tcp stack) ~port:80 router));
  let client = host w ~platform:Platform.linux_native ~name:"browser" ~ip:"10.0.0.9" () in
  let tcp = Netstack.Stack.tcp client.stack in
  let dst = Netstack.Ipaddr.of_string appliance_ip in
  let fetch path =
    let sent = Engine.Sim.now w.sim in
    Netstack.Tcp.connect tcp ~dst ~dst_port:80 >>= fun flow ->
    Netstack.Tcp.write flow
      (bs ("GET " ^ path ^ " HTTP/1.1\r\nHost: sim\r\nConnection: close\r\n\r\n"))
    >>= fun () ->
    let buf = Buffer.create 256 in
    let rec drain () =
      Netstack.Tcp.read flow >>= function
      | Some b ->
        Buffer.add_string buf (Bytestruct.to_string b);
        drain ()
      | None -> P.return ()
    in
    drain () >>= fun () ->
    Netstack.Tcp.close flow >>= fun () ->
    P.return (Buffer.contents buf, Engine.Sim.now w.sim - sent)
  in
  let rec go acc = function
    | [] -> P.return (List.rev acc)
    | p :: ps -> fetch p >>= fun r -> go (r :: acc) ps
  in
  run w (go [] http_script)

(* ---- the equivalence assertions ---- *)

let check_equivalent what runs =
  let payloads (_, rs) = List.map fst rs in
  let latencies (_, rs) = List.map snd rs in
  match runs with
  | ((_, first) as ref_run) :: rest ->
    List.iter
      (fun ((t, _) as r) ->
        check_bool
          (Printf.sprintf "%s: %s responses byte-identical to reference" what t)
          true
          (payloads r = payloads ref_run))
      rest;
    List.iteri
      (fun i ((ti, _) as ri) ->
        check_bool
          (Printf.sprintf "%s: %s latencies positive" what ti)
          true
          (List.for_all (fun l -> l > 0) (latencies ri));
        List.iteri
          (fun j ((tj, _) as rj) ->
            if j > i then
              check_bool
                (Printf.sprintf "%s: %s and %s timing signatures differ" what ti tj)
                true
                (latencies ri <> latencies rj))
          runs)
      runs;
    ignore first
  | [] -> assert false

(* The three backends in workflow order ([Core.Target.all]). *)
let all_backends () =
  List.map
    (fun (b : Core.Backend.t) -> (Core.Target.to_string b.target, b))
    [ Core.Posix_sockets.backend; Core.Posix_direct.backend; Core.Xen_direct.backend ]

let test_dns_equivalence () =
  check_equivalent "dns" (List.map (fun (name, b) -> (name, dns_run b)) (all_backends ()))

let test_http_equivalence () =
  check_equivalent "http" (List.map (fun (name, b) -> (name, http_run b)) (all_backends ()))

(* ---- Boot_spec.quiet_net on every backend ---- *)

(* ARP frames an appliance booted on [backend] with a static address
   puts on the bridge when nothing else talks: its stack's gratuitous
   announcement, unless the spec is quiet. *)
let boot_arp_frames backend ~quiet_net =
  let w = create () in
  let arps = ref 0 in
  ignore
    (Netsim.Bridge.tap w.bridge (fun ~dir ~link:_ ~time_ns:_ frame ->
         if dir = Netsim.Tx && Bytestruct.BE.get_uint16 frame 12 = 0x0806 then incr arps));
  ignore
    (run w
       (Core.Appliance.start w.hv w.toolstack
          (Core.Boot_spec.make ~backend_dom:w.dom0 ~bridge:w.bridge
             ~config:(Core.Appliance.dns_appliance ()) ~ip:(static_ip appliance_ip) ~backend
             ~quiet_net ())
          ~main:(fun _ -> P.return 0)));
  Engine.Sim.run w.sim;
  !arps

let test_quiet_net () =
  List.iter
    (fun (name, backend) ->
      check_bool (name ^ ": a static address is announced") true
        (boot_arp_frames backend ~quiet_net:false > 0);
      check_int (name ^ ": quiet_net announces nothing") 0
        (boot_arp_frames backend ~quiet_net:true))
    (all_backends ())

(* ---- per-target library closures (Table 2 becomes target-dependent) ---- *)

let libs_of target =
  let p = Core.Specialize.plan ~target (Core.Appliance.dns_appliance ()) Core.Specialize.Standard in
  (match Core.Specialize.verify p with
  | Ok () -> ()
  | Error e -> Alcotest.failf "plan for %s does not verify: %s" (Core.Target.to_string target) e);
  List.map (fun l -> l.Core.Library_registry.lib_name) p.Core.Specialize.libs

let test_closures_swap_backends () =
  let has l n = List.mem n l in
  let sockets = libs_of Core.Target.Posix_sockets in
  check_bool "posix-sockets links hostsock" true (has sockets "hostsock");
  check_bool "posix-sockets drops the netstack" true
    (not (List.exists (has sockets) [ "tcp"; "udp"; "netif"; "ring"; "ethernet" ]));
  let direct = libs_of Core.Target.Posix_direct in
  check_bool "posix-direct links tuntap" true (has direct "tuntap");
  check_bool "posix-direct keeps the netstack" true (has direct "udp" && has direct "ipv4");
  check_bool "posix-direct drops the PV driver" true
    (not (has direct "netif" || has direct "ring"));
  let xen = libs_of Core.Target.Xen_direct in
  check_bool "xen-direct keeps the PV driver" true (has xen "netif");
  check_bool "xen-direct links no host shims" true
    (not (has xen "hostsock" || has xen "tuntap" || has xen "hostfile"))

let test_verify_rejects_netstack_on_sockets () =
  let xen_plan =
    Core.Specialize.plan ~target:Core.Target.Xen_direct (Core.Appliance.dns_appliance ())
      Core.Specialize.Standard
  in
  match Core.Specialize.verify { xen_plan with Core.Specialize.target = Core.Target.Posix_sockets } with
  | Ok () -> Alcotest.fail "posix-sockets plan carrying the netstack must not verify"
  | Error e ->
    check_bool "error names the offending library" true
      (let mem s sub =
         let n = String.length sub in
         let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
         go 0
       in
       mem e "must not link")

let () =
  Alcotest.run "targets"
    [
      ( "targets",
        [
          Alcotest.test_case "dns answers are target-independent" `Quick test_dns_equivalence;
          Alcotest.test_case "http responses are target-independent" `Quick test_http_equivalence;
          Alcotest.test_case "quiet_net holds on every backend" `Quick test_quiet_net;
          Alcotest.test_case "library closures swap backends" `Quick test_closures_swap_backends;
          Alcotest.test_case "verify rejects netstack on posix-sockets" `Quick
            test_verify_rejects_netstack_on_sockets;
        ] );
    ]
