(* Wire-level observability: the pcap format, the capture-filter
   language, the capture ring's ownership/eviction behaviour, pcap
   determinism on the pinned scenario, ss-style introspection matching
   the TCP state machine, the capture plane's teardown and its
   postmortem section. *)

module P = Mthread.Promise

let ( >>= ) = P.bind

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* ---- a minimal synthetic TCP frame for filter tests ---- *)

let tcp_frame ?(src = (10, 0, 0, 1)) ?(dst = (10, 0, 0, 2)) ?(sport = 1234) ?(dport = 80)
    ?(flags = 0x10) () =
  let b = Bytestruct.create 60 in
  Bytestruct.BE.set_uint16 b 12 0x0800;
  Bytestruct.set_uint8 b 14 0x45;
  Bytestruct.set_uint8 b 23 6;
  let set_ip off (a, b', c, d) =
    Bytestruct.set_uint8 b off a;
    Bytestruct.set_uint8 b (off + 1) b';
    Bytestruct.set_uint8 b (off + 2) c;
    Bytestruct.set_uint8 b (off + 3) d
  in
  set_ip 26 src;
  set_ip 30 dst;
  Bytestruct.BE.set_uint16 b 34 sport;
  Bytestruct.BE.set_uint16 b 36 dport;
  Bytestruct.set_uint8 b 47 flags;
  b

let udp_frame () =
  let b = tcp_frame () in
  Bytestruct.set_uint8 b 23 17;
  b

let arp_frame () =
  let b = Bytestruct.create 42 in
  Bytestruct.BE.set_uint16 b 12 0x0806;
  b

(* ---- pcap format ---- *)

let test_pcap_roundtrip () =
  let b = Buffer.create 256 in
  Formats.Pcap.add_header ~snaplen:1500 b;
  Formats.Pcap.add_packet b ~ts_ns:1_234_567_890 "hello-frame";
  Formats.Pcap.add_packet b ~ts_ns:2_000_000_042 ~orig_len:9000 (String.make 1500 'x');
  let bytes = Buffer.contents b in
  match Formats.Pcap.parse bytes with
  | Error e -> Alcotest.failf "parse: %s" e
  | Ok f ->
    Alcotest.(check int) "snaplen" 1500 f.Formats.Pcap.snaplen;
    Alcotest.(check int) "linktype" 1 f.Formats.Pcap.linktype;
    (match f.Formats.Pcap.packets with
    | [ p1; p2 ] ->
      Alcotest.(check int) "p1 sec" 1 p1.Formats.Pcap.ts_sec;
      Alcotest.(check int) "p1 usec" 234_567 p1.Formats.Pcap.ts_usec;
      Alcotest.(check string) "p1 data" "hello-frame" p1.Formats.Pcap.data;
      Alcotest.(check int) "p1 orig len" 11 p1.Formats.Pcap.len;
      Alcotest.(check int) "p2 orig len" 9000 p2.Formats.Pcap.len;
      Alcotest.(check int) "p2 stored" 1500 (String.length p2.Formats.Pcap.data)
    | ps -> Alcotest.failf "expected 2 packets, got %d" (List.length ps))

let test_pcap_errors () =
  let bad s =
    match Formats.Pcap.parse s with Ok _ -> Alcotest.fail "accepted bad pcap" | Error _ -> ()
  in
  bad "";
  bad "short";
  bad (String.make 24 '\x00');
  (* truncated record *)
  let b = Buffer.create 64 in
  Formats.Pcap.add_header b;
  Formats.Pcap.add_packet b ~ts_ns:0 "x";
  let s = Buffer.contents b in
  bad (String.sub s 0 (String.length s - 1))

(* ---- filter language ---- *)

let matches expr frame =
  match Capture.parse_filter expr with
  | Error e -> Alcotest.failf "parse %S: %s" expr e
  | Ok f -> Capture.filter_matches f frame

let test_filter_language () =
  let t = tcp_frame () in
  Alcotest.(check bool) "tcp" true (matches "tcp" t);
  Alcotest.(check bool) "udp vs tcp" false (matches "udp" t);
  Alcotest.(check bool) "udp" true (matches "udp" (udp_frame ()));
  Alcotest.(check bool) "arp" true (matches "arp" (arp_frame ()));
  Alcotest.(check bool) "ip vs arp" false (matches "ip" (arp_frame ()));
  Alcotest.(check bool) "port either side" true (matches "port 80" t);
  Alcotest.(check bool) "src port" true (matches "src port 1234" t);
  Alcotest.(check bool) "src port wrong" false (matches "src port 80" t);
  Alcotest.(check bool) "dst port" true (matches "dst port 80" t);
  Alcotest.(check bool) "host" true (matches "host 10.0.0.1" t);
  Alcotest.(check bool) "dst host" true (matches "dst host 10.0.0.2" t);
  Alcotest.(check bool) "dst host wrong" false (matches "dst host 10.0.0.1" t);
  Alcotest.(check bool) "flag ack" true (matches "flag ack" t);
  Alcotest.(check bool) "flag syn" false (matches "flag syn" t);
  Alcotest.(check bool) "syn frame" true
    (matches "flag syn" (tcp_frame ~flags:0x02 ()));
  Alcotest.(check bool) "and" true (matches "tcp and port 80 and flag ack" t);
  Alcotest.(check bool) "and fails" false (matches "tcp and port 81" t);
  Alcotest.(check bool) "or" true (matches "udp or tcp" t);
  Alcotest.(check bool) "not" true (matches "not udp" t);
  Alcotest.(check bool) "precedence: and binds tighter" true
    (matches "udp or tcp and port 80" t);
  Alcotest.(check bool) "parens" false (matches "(udp or tcp) and port 99" t);
  Alcotest.(check bool) "empty is all" true (matches "" t);
  Alcotest.(check bool) "empty matches arp" true (matches "" (arp_frame ()));
  List.iter
    (fun e ->
      match Capture.parse_filter e with
      | Ok _ -> Alcotest.failf "accepted bad filter %S" e
      | Error _ -> ())
    [ "bogus"; "port"; "port x"; "tcp and"; "(tcp"; "flag zzz"; "host 1.2.3"; "tcp tcp" ]

(* ---- ring behaviour ---- *)

let test_ring_eviction () =
  let cap = Capture.create ~capacity:4 ~snaplen:16 () in
  for i = 0 to 9 do
    Capture.record cap ~dir:Netsim.Tx ~link:0 ~time_ns:(i * 1000)
      (tcp_frame ~sport:(1000 + i) ())
  done;
  Alcotest.(check int) "matched" 10 (Capture.matched cap);
  Alcotest.(check int) "stored" 4 (Capture.stored cap);
  Alcotest.(check int) "evicted" 6 (Capture.evicted cap);
  (match Capture.records cap with
  | { Capture.r_t = 6000; r_len = 60; _ } :: _ -> ()
  | r :: _ -> Alcotest.failf "oldest is t=%d len=%d" r.Capture.r_t r.Capture.r_len
  | [] -> Alcotest.fail "empty ring");
  (* snaplen caps stored bytes, orig_len records the wire length *)
  (match Formats.Pcap.parse (Capture.to_pcap cap) with
  | Error e -> Alcotest.failf "to_pcap unparseable: %s" e
  | Ok f ->
    Alcotest.(check int) "pcap packet count" 4 (List.length f.Formats.Pcap.packets);
    List.iter
      (fun (p : Formats.Pcap.packet) ->
        Alcotest.(check int) "stored capped" 16 (String.length p.Formats.Pcap.data);
        Alcotest.(check int) "orig len" 60 p.Formats.Pcap.len)
      f.Formats.Pcap.packets);
  Capture.clear cap;
  Alcotest.(check int) "cleared" 0 (Capture.stored cap);
  Capture.close cap

(* ---- closing a capture detaches its vif taps ---- *)

(* A capture at a vif, closed, must stop recording there and hand back
   every pool buffer it held: [stored] stays 0 through later traffic and
   the vif pool's outstanding count returns to its value before the
   capture. [attach] gives the vif under test and its peer's stack. *)
let check_close_detaches_vif attach =
  let w = Core.World.create ~seed:5 () in
  let peer = (Core.World.host w ~name:"peer" ~ip:"10.0.0.2" ()).Core.World.stack in
  let netif, stack = attach w in
  let exchange () =
    let send src dst =
      Netstack.Udp.sendto (Netstack.Stack.udp src) ~src_port:7
        ~dst:(Netstack.Stack.address dst) ~dst_port:7 (Bytestruct.of_string "ping")
    in
    Core.World.run w (send peer stack >>= fun () -> send stack peer);
    Engine.Sim.run ~until:(Engine.Sim.now w.sim + Engine.Sim.ms 10) w.sim
  in
  let pool = Devices.Netif.pool netif in
  exchange ();
  let before = Pktbuf.outstanding pool in
  let cap = Capture.create ~name:"vif" () in
  Capture.attach_vif cap netif;
  exchange ();
  Alcotest.(check bool) "captured while attached" true (Capture.stored cap > 0);
  Capture.close cap;
  exchange ();
  Alcotest.(check int) "nothing stored after close" 0 (Capture.stored cap);
  Alcotest.(check int) "vif pool buffers returned" before (Pktbuf.outstanding pool)

let test_close_detaches_vif () =
  check_close_detaches_vif (fun w ->
      let h = Core.World.host w ~name:"pv" ~ip:"10.0.0.1" () in
      (h.Core.World.netif, h.Core.World.stack));
  check_close_detaches_vif (fun w ->
      let dom = Core.World.domain w ~name:"direct" () in
      let nic = Netsim.Bridge.new_nic w.bridge ~mac:(Netsim.mac_of_int 7) () in
      let netif = Devices.Netif.connect_direct ~dom ~nic () in
      let cfg = Netstack.Stack.Static (Core.World.static_ip "10.0.0.1") in
      (netif, Core.World.run w (Netstack.Stack.create w.sim ~dom ~netif cfg)))

(* ---- Trace.quiesce closes a capture left open ---- *)

(* The capture plane's reset closes every live capture: after
   [Trace.quiesce] the plane is off, the ring is empty and every pool
   buffer it held is back with the sender. *)
let test_quiesce_closes_captures () =
  let w = Core.World.create ~seed:5 () in
  let a = Core.World.host w ~name:"a" ~ip:"10.0.0.1" () in
  let b = Core.World.host w ~name:"b" ~ip:"10.0.0.2" () in
  let exchange () =
    Core.World.run w
      (Netstack.Udp.sendto (Netstack.Stack.udp a.stack) ~src_port:7
         ~dst:(Netstack.Stack.address b.stack) ~dst_port:7 (Bytestruct.of_string "ping"));
    Engine.Sim.run ~until:(Engine.Sim.now w.sim + Engine.Sim.ms 10) w.sim
  in
  let pool = Devices.Netif.pool a.netif in
  let cap = Capture.create ~name:"left-open" () in
  Capture.attach_bridge cap w.bridge;
  exchange ();
  Alcotest.(check bool) "the capture holds the sender's buffers" true (Pktbuf.outstanding pool > 0);
  Alcotest.(check bool) "capture plane on" true (List.assoc "capture" (Trace.planes ()));
  Trace.quiesce ();
  Alcotest.(check int) "sender's pool buffers returned" 0 (Pktbuf.outstanding pool);
  Alcotest.(check bool) "capture plane off" false (List.assoc "capture" (Trace.planes ()));
  exchange ();
  Alcotest.(check int) "untapped: nothing stored" 0 (Capture.stored cap)

(* ---- pinned-scenario determinism + golden cross-check ---- *)

let test_capture_deterministic () =
  let pcap1, flows1 = Testlib.Capture_scenario.run () in
  let pcap2, flows2 = Testlib.Capture_scenario.run () in
  Alcotest.(check string) "pcap byte-identical across runs" pcap1 pcap2;
  Alcotest.(check string) "sidecar identical across runs" flows1 flows2;
  (* the capture is a valid libpcap file with real traffic in it *)
  match Formats.Pcap.parse pcap1 with
  | Error e -> Alcotest.failf "scenario pcap unparseable: %s" e
  | Ok f ->
    Alcotest.(check int) "linktype ethernet" 1 f.Formats.Pcap.linktype;
    Alcotest.(check bool) "has packets" true (List.length f.Formats.Pcap.packets > 20);
    (* timestamps never go backwards: ring order is capture order *)
    let rec mono = function
      | (a : Formats.Pcap.packet) :: (b :: _ as tl) ->
        Alcotest.(check bool) "ts monotonic" true
          (a.Formats.Pcap.ts_sec < b.Formats.Pcap.ts_sec
          || (a.Formats.Pcap.ts_sec = b.Formats.Pcap.ts_sec
             && a.Formats.Pcap.ts_usec <= b.Formats.Pcap.ts_usec));
        mono tl
      | _ -> ()
    in
    mono f.Formats.Pcap.packets;
    (* every packet passed the "tcp and port 80" filter *)
    let filt =
      match Capture.parse_filter "tcp and port 80" with Ok f -> f | Error e -> failwith e
    in
    List.iter
      (fun (p : Formats.Pcap.packet) ->
        Alcotest.(check bool) "filter holds" true
          (Capture.filter_matches filt (Bytestruct.of_string p.Formats.Pcap.data)))
      f.Formats.Pcap.packets;
    (* sidecar lines the same packets, with flow ids for cross-reference *)
    let sidecar_lines =
      List.filter (fun l -> l <> "") (String.split_on_char '\n' flows1)
    in
    Alcotest.(check int) "sidecar covers every packet"
      (List.length f.Formats.Pcap.packets)
      (List.length sidecar_lines);
    Alcotest.(check bool) "sidecar carries flow ids" true
      (List.exists
         (fun l ->
           match Formats.Json.parse l with
           | Formats.Json.Object kvs -> (
             match List.assoc_opt "flow" kvs with
             | Some (Formats.Json.Number fl) -> fl >= 0.0
             | _ -> false)
           | _ -> false)
         sidecar_lines)

(* ---- ss introspection matches the state machine ---- *)

let test_ss_matches_tcp_state () =
  let w = Core.World.create ~seed:7 () in
  let sim = w.Core.World.sim in
  let host name ip = (Core.World.host w ~account_cpu:false ~name ~ip ()).Core.World.stack in
  let server = host "server" "10.0.0.2" in
  let client = host "client" "10.0.0.9" in
  let stcp = Netstack.Stack.tcp server in
  Netstack.Tcp.listen stcp ~port:80 (fun flow ->
      let rec drain () =
        Netstack.Tcp.read flow >>= function None -> P.return () | Some _ -> drain ()
      in
      drain ());
  (* before any connection: exactly the listener *)
  (match Netstack.Tcp.sockets stcp with
  | [ li ] ->
    Alcotest.(check string) "listen state" "LISTEN" li.Netstack.Tcp.si_state;
    Alcotest.(check int) "listen port" 80 li.Netstack.Tcp.si_local_port;
    Alcotest.(check bool) "no peer" true (li.Netstack.Tcp.si_peer = None)
  | l -> Alcotest.failf "expected 1 socket, got %d" (List.length l));
  let flow =
    P.run sim
      (Netstack.Tcp.connect (Netstack.Stack.tcp client)
         ~dst:(Netstack.Stack.address server) ~dst_port:80)
  in
  P.run sim (Netstack.Tcp.write flow (Bytestruct.of_string "hello"));
  Engine.Sim.run ~until:(Engine.Sim.now sim + Engine.Sim.ms 50) sim;
  (* client side: the sock_info row agrees with the flow's own accessors *)
  let crow =
    match
      List.find_opt
        (fun r -> r.Netstack.Tcp.si_peer <> None)
        (Netstack.Tcp.sockets (Netstack.Stack.tcp client))
    with
    | Some r -> r
    | None -> Alcotest.fail "client flow missing from socket table"
  in
  Alcotest.(check string) "client state matches state machine"
    (Netstack.Tcp.state_name flow) crow.Netstack.Tcp.si_state;
  Alcotest.(check string) "client state is ESTABLISHED" "ESTABLISHED" crow.Netstack.Tcp.si_state;
  Alcotest.(check int) "client local port" (Netstack.Tcp.local_port flow)
    crow.Netstack.Tcp.si_local_port;
  (match crow.Netstack.Tcp.si_peer with
  | Some (ip, port) ->
    let rip, rport = Netstack.Tcp.remote flow in
    Alcotest.(check string) "peer ip" (Netstack.Ipaddr.to_string rip)
      (Netstack.Ipaddr.to_string ip);
    Alcotest.(check int) "peer port" rport port
  | None -> Alcotest.fail "no peer");
  Alcotest.(check int) "cwnd matches" (Netstack.Tcp.cwnd flow) crow.Netstack.Tcp.si_cwnd;
  (* server side: the accepted flow appears as ESTABLISHED alongside LISTEN *)
  let srows = Netstack.Tcp.sockets stcp in
  Alcotest.(check bool) "server has LISTEN + flow" true (List.length srows = 2);
  Alcotest.(check bool) "server flow established" true
    (List.exists (fun r -> r.Netstack.Tcp.si_state = "ESTABLISHED") srows);
  (* the rendered table carries the same rows *)
  let table = Netstack.Ss.render server in
  Alcotest.(check bool) "render has LISTEN" true
    (contains ~needle:"LISTEN" table);
  Alcotest.(check bool) "render has ESTABLISHED" true
    (contains ~needle:"ESTABLISHED" table);
  Alcotest.(check bool) "render names the peer" true
    (contains ~needle:"10.0.0.9" table);
  (* close: the client row leaves ESTABLISHED *)
  P.run sim (Netstack.Tcp.close flow);
  Engine.Sim.run ~until:(Engine.Sim.now sim + Engine.Sim.ms 200) sim;
  Alcotest.(check bool) "client row left ESTABLISHED" true
    (List.for_all
       (fun r -> r.Netstack.Tcp.si_state <> "ESTABLISHED")
       (Netstack.Tcp.sockets (Netstack.Stack.tcp client)))

(* ---- the capture plane's postmortem section ---- *)

let test_flight_includes_capture () =
  Trace.Flight.reset ();
  Trace.Flight.enable ();
  let cap = Capture.create ~name:"fl-cap" ~capacity:32 () in
  (* traffic on two ports; the trip implicates only port 80 *)
  for i = 0 to 9 do
    Capture.record cap ~dir:Netsim.Tx ~link:0 ~time_ns:(i * 10)
      (tcp_frame ~dport:80 ~sport:(2000 + i) ());
    Capture.record cap ~dir:Netsim.Rx ~link:1 ~time_ns:((i * 10) + 5)
      (tcp_frame ~dport:9999 ~sport:(3000 + i) ())
  done;
  Trace.Flight.trip ~dom:1 ~payload:[ ("port", Trace.Int 80) ] ~reason:"tcp.timeout" ();
  (match Trace.Flight.last_bundle () with
  | None -> Alcotest.fail "no bundle"
  | Some (_, bundle) ->
    Alcotest.(check bool) "bundle has capture lines" true
      (contains ~needle:"\"capture\":\"fl-cap\"" bundle);
    Alcotest.(check bool) "implicated flow present" true
      (contains ~needle:":80 " bundle);
    Alcotest.(check bool) "unrelated flow filtered out" true
      (not (contains ~needle:":9999" bundle)));
  (* quiesce closes the capture: with none live, the plane adds nothing *)
  Trace.quiesce ();
  Trace.Flight.enable ();
  Trace.Flight.trip ~dom:1 ~payload:[ ("port", Trace.Int 80) ] ~reason:"tcp.timeout" ();
  (match Trace.Flight.last_bundle () with
  | None -> Alcotest.fail "no second bundle"
  | Some (_, bundle) ->
    Alcotest.(check bool) "no capture lines after quiesce" true
      (not (contains ~needle:"\"capture\":" bundle)));
  Trace.quiesce ()

let () =
  Alcotest.run "capture"
    [
      ( "pcap",
        [
          Alcotest.test_case "writer/reader round-trip" `Quick test_pcap_roundtrip;
          Alcotest.test_case "malformed files rejected" `Quick test_pcap_errors;
        ] );
      ( "filter",
        [ Alcotest.test_case "language semantics" `Quick test_filter_language ] );
      ( "ring",
        [
          Alcotest.test_case "bounded eviction + snaplen" `Quick test_ring_eviction;
          Alcotest.test_case "close detaches vif taps" `Quick test_close_detaches_vif;
          Alcotest.test_case "quiesce closes live captures" `Quick test_quiesce_closes_captures;
        ] );
      ( "determinism",
        [ Alcotest.test_case "pinned scenario byte-identical" `Quick test_capture_deterministic ]
      );
      ( "ss",
        [ Alcotest.test_case "table matches TCP state machine" `Quick test_ss_matches_tcp_state ]
      );
      ( "flight",
        [ Alcotest.test_case "postmortem freezes implicated frames" `Quick
            test_flight_includes_capture;
        ] );
    ]
