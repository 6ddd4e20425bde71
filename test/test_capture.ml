(* Wire-level observability: the pcap format, the capture-filter
   language, the capture ring's ownership/eviction behaviour, pcap
   determinism on the pinned scenario, ss-style introspection matching
   the TCP state machine, and the flight-recorder capture splice. *)

module P = Mthread.Promise

let ( >>= ) = P.bind

let static_ip s =
  {
    Netstack.Ipv4.address = Netstack.Ipaddr.of_string s;
    netmask = Netstack.Ipaddr.of_string "255.255.255.0";
    gateway = None;
  }

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
    | ps -> Alcotest.failf "expected 2 packets, got %d" (List.length ps));
    (* re-serialising the parse reproduces the file byte for byte *)
    Alcotest.(check string) "re-serialised byte-identical" bytes (Formats.Pcap.to_string f)

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
  match Netsim.Capture.parse_filter expr with
  | Error e -> Alcotest.failf "parse %S: %s" expr e
  | Ok f -> Netsim.Capture.filter_matches f frame

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
      match Netsim.Capture.parse_filter e with
      | Ok _ -> Alcotest.failf "accepted bad filter %S" e
      | Error _ -> ())
    [ "bogus"; "port"; "port x"; "tcp and"; "(tcp"; "flag zzz"; "host 1.2.3"; "tcp tcp" ]

(* ---- ring behaviour ---- *)

let test_ring_eviction () =
  let cap = Netsim.Capture.create ~capacity:4 ~snaplen:16 () in
  for i = 0 to 9 do
    Netsim.Capture.record cap ~dir:Netsim.Tx ~link:0 ~time_ns:(i * 1000)
      (tcp_frame ~sport:(1000 + i) ())
  done;
  Alcotest.(check int) "matched" 10 (Netsim.Capture.matched cap);
  Alcotest.(check int) "stored" 4 (Netsim.Capture.stored cap);
  Alcotest.(check int) "evicted" 6 (Netsim.Capture.evicted cap);
  (match Netsim.Capture.records cap with
  | { Netsim.Capture.r_t = 6000; r_len = 60; _ } :: _ -> ()
  | r :: _ -> Alcotest.failf "oldest is t=%d len=%d" r.Netsim.Capture.r_t r.Netsim.Capture.r_len
  | [] -> Alcotest.fail "empty ring");
  (* snaplen caps stored bytes, orig_len records the wire length *)
  (match Formats.Pcap.parse (Netsim.Capture.to_pcap cap) with
  | Error e -> Alcotest.failf "to_pcap unparseable: %s" e
  | Ok f ->
    Alcotest.(check int) "pcap packet count" 4 (List.length f.Formats.Pcap.packets);
    List.iter
      (fun (p : Formats.Pcap.packet) ->
        Alcotest.(check int) "stored capped" 16 (String.length p.Formats.Pcap.data);
        Alcotest.(check int) "orig len" 60 p.Formats.Pcap.len)
      f.Formats.Pcap.packets);
  Netsim.Capture.clear cap;
  Alcotest.(check int) "cleared" 0 (Netsim.Capture.stored cap);
  Netsim.Capture.close cap

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
      match Netsim.Capture.parse_filter "tcp and port 80" with Ok f -> f | Error e -> failwith e
    in
    List.iter
      (fun (p : Formats.Pcap.packet) ->
        Alcotest.(check bool) "filter holds" true
          (Netsim.Capture.filter_matches filt (Bytestruct.of_string p.Formats.Pcap.data)))
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
  let sim = Engine.Sim.create ~seed:7 () in
  let hv = Xensim.Hypervisor.create sim in
  let dom0 =
    Xensim.Hypervisor.create_domain hv ~name:"dom0" ~mem_mib:512 ~platform:Platform.linux_pv ()
  in
  dom0.Xensim.Domain.state <- Xensim.Domain.Running;
  let bridge = Netsim.Bridge.create sim in
  let host name ip =
    let dom =
      Xensim.Hypervisor.create_domain hv ~name ~mem_mib:64 ~platform:Platform.xen_extent ()
    in
    dom.Xensim.Domain.state <- Xensim.Domain.Running;
    let nic =
      Netsim.Bridge.new_nic bridge ~mac:(Netsim.mac_of_int (100 + dom.Xensim.Domain.id)) ()
    in
    let netif = Devices.Netif.connect hv ~dom ~backend_dom:dom0 ~nic () in
    P.run sim (Netstack.Stack.create sim ~netif (Netstack.Stack.Static (static_ip ip)))
  in
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

(* ---- flight-recorder capture splice ---- *)

let test_flight_includes_capture () =
  Trace.Flight.reset ();
  Trace.Flight.enable ();
  let cap = Netsim.Capture.create ~name:"fl-cap" ~capacity:32 () in
  (* traffic on two ports; the trip implicates only port 80 *)
  for i = 0 to 9 do
    Netsim.Capture.record cap ~dir:Netsim.Tx ~link:0 ~time_ns:(i * 10)
      (tcp_frame ~dport:80 ~sport:(2000 + i) ());
    Netsim.Capture.record cap ~dir:Netsim.Rx ~link:1 ~time_ns:((i * 10) + 5)
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
  Netsim.Capture.close cap;
  (* with no live captures the hook contributes nothing *)
  Trace.Flight.trip ~dom:1 ~payload:[ ("port", Trace.Int 80) ] ~reason:"tcp.timeout" ();
  (match Trace.Flight.last_bundle () with
  | None -> Alcotest.fail "no second bundle"
  | Some (_, bundle) ->
    Alcotest.(check bool) "no capture lines after close" true
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
        [ Alcotest.test_case "bounded eviction + snaplen" `Quick test_ring_eviction ] );
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
