open Testlib
module P = Mthread.Promise
open P.Infix
module N = Netstack

(* ---- addresses ---- *)

let test_ipaddr () =
  let ip = N.Ipaddr.of_string "192.168.1.42" in
  check_string "roundtrip" "192.168.1.42" (N.Ipaddr.to_string ip);
  check_bool "equal" true (N.Ipaddr.equal ip (N.Ipaddr.v4 192 168 1 42));
  (match N.Ipaddr.of_string "300.1.1.1" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "bad octet rejected");
  (match N.Ipaddr.of_string "1.2.3" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "short quad rejected");
  let nm = N.Ipaddr.of_string "255.255.255.0" in
  check_bool "same subnet" true
    (N.Ipaddr.same_subnet ~netmask:nm (N.Ipaddr.v4 10 0 0 1) (N.Ipaddr.v4 10 0 0 200));
  check_bool "different subnet" false
    (N.Ipaddr.same_subnet ~netmask:nm (N.Ipaddr.v4 10 0 0 1) (N.Ipaddr.v4 10 0 1 1))

(* Addresses order by their unsigned value, so 10/8 sorts before
   192.168/16 and 255.255.255.255 is the greatest; the int32 conversions
   round-trip at and above 128.0.0.0, where an int32 is negative; and
   the all-ones address reads and writes as four 0xff bytes. *)
let test_ipaddr_unsigned () =
  let ip = N.Ipaddr.of_string in
  let sorted =
    List.sort N.Ipaddr.compare
      [ ip "192.168.0.1"; ip "255.255.255.255"; ip "10.0.0.1"; ip "128.0.0.0"; ip "0.0.0.0";
        ip "127.255.255.255" ]
  in
  check
    Alcotest.(list string)
    "unsigned order"
    [ "0.0.0.0"; "10.0.0.1"; "127.255.255.255"; "128.0.0.0"; "192.168.0.1"; "255.255.255.255" ]
    (List.map N.Ipaddr.to_string sorted);
  check_bool "10.0.0.1 < 192.168.0.1" true (N.Ipaddr.compare (ip "10.0.0.1") (ip "192.168.0.1") < 0);
  List.iter
    (fun (s, i32) ->
      check Alcotest.int32 (s ^ " to_int32") i32 (N.Ipaddr.to_int32 (ip s));
      check_string (s ^ " of_int32") s (N.Ipaddr.to_string (N.Ipaddr.of_int32 i32));
      check_bool (s ^ " round trip") true (N.Ipaddr.equal (ip s) (N.Ipaddr.of_int32 i32)))
    [
      ("127.255.255.255", 0x7FFF_FFFFl); ("128.0.0.0", Int32.min_int);
      ("192.168.0.1", 0xC0A8_0001l); ("255.255.255.255", -1l);
    ];
  check_bool "of_int32 (-1l) is broadcast" true (N.Ipaddr.equal N.Ipaddr.broadcast (N.Ipaddr.of_int32 (-1l)));
  check_int "to_int of broadcast" 0xFFFF_FFFF (N.Ipaddr.to_int N.Ipaddr.broadcast);
  let b = Bytestruct.create 6 in
  Bytestruct.fill b '\000';
  N.Ipaddr.set b 1 N.Ipaddr.broadcast;
  check_string "set writes four 0xff bytes" "\000\xff\xff\xff\xff\000" (Bytestruct.to_string b);
  check_bool "get reads them back" true (N.Ipaddr.equal N.Ipaddr.broadcast (N.Ipaddr.get b 1));
  check_string "get of 255.255.255.255" "255.255.255.255" (N.Ipaddr.to_string (N.Ipaddr.get b 1))

let test_macaddr () =
  let m = N.Macaddr.of_bytes "\xaa\xbb\xcc\xdd\xee\xff" in
  check_string "roundtrip" "\xaa\xbb\xcc\xdd\xee\xff" (N.Macaddr.to_bytes m);
  let b = Bytestruct.create 8 in
  N.Macaddr.set b 1 N.Macaddr.broadcast;
  check_string "set writes six 0xff bytes" "\000\xff\xff\xff\xff\xff\xff\000" (Bytestruct.to_string b);
  check_bool "get reads them back" true (N.Macaddr.equal N.Macaddr.broadcast (N.Macaddr.get b 1));
  match N.Macaddr.of_bytes "\xaa\xbb" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "short mac rejected"

(* ---- checksum ---- *)

let test_checksum_rfc_example () =
  (* RFC 1071 example data *)
  let b = Bytestruct.of_string "\x00\x01\xf2\x03\xf4\xf5\xf6\xf7" in
  check_int "sum" (lnot 0xddf2 land 0xffff) (N.Checksum.ones_complement b)

let test_checksum_odd_length () =
  let b = Bytestruct.of_string "\x01\x02\x03" in
  (* words: 0x0102, 0x0300 *)
  check_int "odd pads with zero" (lnot 0x0402 land 0xffff) (N.Checksum.ones_complement b)

let test_checksum_scatter_equals_contiguous () =
  let data = pattern 101 in
  let whole = N.Checksum.ones_complement (Bytestruct.of_string data) in
  let parts =
    [ Bytestruct.of_string (String.sub data 0 33);
      Bytestruct.of_string (String.sub data 33 20);
      Bytestruct.of_string (String.sub data 53 48) ]
  in
  let sum = List.fold_left (fun acc b -> N.Checksum.add acc b ~off:0 ~len:(Bytestruct.length b)) 0 parts in
  check_int "scatter-gather equal" whole (N.Checksum.finish sum)

let test_checksum_verifies_to_zero () =
  let data = Bytestruct.of_string (pattern 40) in
  let c = N.Checksum.ones_complement data in
  let packet = Bytestruct.create 42 in
  Bytestruct.blit data 0 packet 0 40;
  Bytestruct.BE.set_uint16 packet 40 c;
  check_bool "valid" true (N.Checksum.ones_complement packet = 0)

let prop_checksum_detects_single_bit_flips =
  qtest "checksum detects bit flips" QCheck.(pair (string_of_size (QCheck.Gen.int_range 4 64)) small_nat)
    (fun (s, bit) ->
      let b = Bytestruct.of_string s in
      let c1 = N.Checksum.ones_complement b in
      let i = bit mod (String.length s * 8) in
      let byte = i / 8 and off = i mod 8 in
      Bytestruct.set_uint8 b byte (Bytestruct.get_uint8 b byte lxor (1 lsl off));
      let c2 = N.Checksum.ones_complement b in
      c1 <> c2)

(* The byte-pair algorithm the word-at-a-time kernel replaced, kept here as
   the oracle: 16-bit big-endian words over the concatenated fragments, an
   odd fragment's last byte carried into the next fragment's first. *)
let reference_checksum bufs =
  let sum, carry =
    List.fold_left
      (fun (sum, carry) buf ->
        let sum = ref sum and carry = ref carry in
        for i = 0 to Bytestruct.length buf - 1 do
          let b = Bytestruct.get_uint8 buf i in
          match !carry with
          | Some hi ->
            sum := !sum + ((hi lsl 8) lor b);
            carry := None
          | None -> carry := Some b
        done;
        (!sum, !carry))
      (0, None) bufs
  in
  let sum = match carry with Some hi -> sum + (hi lsl 8) | None -> sum in
  let rec fold s = if s > 0xffff then fold ((s land 0xffff) + (s lsr 16)) else s in
  lnot (fold sum) land 0xffff

let pseudo_buffer ~src ~dst ~proto ~len =
  let b = Bytestruct.create 12 in
  N.Ipaddr.set b 0 src;
  N.Ipaddr.set b 4 dst;
  Bytestruct.set_uint8 b 9 proto;
  Bytestruct.BE.set_uint16 b 10 len;
  b

(* A fragment is a [Bytestruct.sub] view 0-9 bytes into a larger buffer
   whose other bytes are not zero; its own bytes are random, all 0x00 or
   all 0xFF. *)
let gen_fragment =
  let open QCheck.Gen in
  let* len = frequency [ (1, int_range 0 3); (3, int_range 0 64); (1, int_range 0 2048) ] in
  let* bytes =
    frequency
      [ (4, string_size ~gen:char (return len));
        (1, return (String.make len '\x00'));
        (1, return (String.make len '\xff')) ]
  in
  let* before = int_range 0 9 and* after = int_range 0 9 in
  return (String.make before '\xa5' ^ bytes ^ String.make after '\x5a', before, len)

let prop_checksum_matches_reference =
  let gen =
    QCheck.Gen.(
      pair
        (opt (quad ui32 ui32 (int_range 0 255) (int_range 0 0xffff)))
        (list_size (int_range 0 6) gen_fragment))
  in
  let print (_, frags) =
    String.concat " " (List.map (fun (_, off, len) -> Printf.sprintf "[%d+%d]" off len) frags)
  in
  qtest ~count:500 "checksum equals byte-pair reference" (QCheck.make ~print gen)
    (fun (pseudo, frags) ->
      let views =
        List.map (fun (s, off, len) -> Bytestruct.sub (Bytestruct.of_string s) off len) frags
      in
      let acc, prefix =
        match pseudo with
        | None -> (0, [])
        | Some (src, dst, proto, len) ->
          let src = N.Ipaddr.of_int32 src and dst = N.Ipaddr.of_int32 dst in
          (N.Checksum.pseudo ~src ~dst ~proto ~len, [ pseudo_buffer ~src ~dst ~proto ~len ])
      in
      let acc =
        List.fold_left (fun acc v -> N.Checksum.add acc v ~off:0 ~len:(Bytestruct.length v)) acc views
      in
      N.Checksum.finish acc = reference_checksum (prefix @ views))

let test_checksum_allocation_free () =
  let src = N.Ipaddr.v4 10 0 0 1 and dst = N.Ipaddr.v4 10 0 0 2 in
  let header = Bytestruct.of_string (pattern 20) in
  let payload = Bytestruct.sub (Bytestruct.of_string (pattern 1461)) 1 1460 in
  let segment () =
    let acc = N.Checksum.pseudo ~src ~dst ~proto:6 ~len:1480 in
    let acc = N.Checksum.add acc header ~off:0 ~len:20 in
    N.Checksum.finish (N.Checksum.add acc payload ~off:0 ~len:1460)
  in
  let expected = reference_checksum [ pseudo_buffer ~src ~dst ~proto:6 ~len:1480; header; payload ] in
  check_int "agrees with reference" expected (segment ());
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    ignore (Sys.opaque_identity (segment ()))
  done;
  let words = Gc.minor_words () -. before in
  check_bool (Printf.sprintf "1000 checksums allocate %.0f minor words, want < 1000" words) true
    (words < 1000.)

(* ---- integration helpers ---- *)

let pair_world ?(plat_a = Platform.xen_extent) ?(plat_b = Platform.linux_pv) () =
  let w = create () in
  let a = host w ~platform:plat_a ~name:"a" ~ip:"10.0.0.1" () in
  let b = host w ~platform:plat_b ~name:"b" ~ip:"10.0.0.2" () in
  (w, a, b)

(* ---- ARP ---- *)

let test_arp_resolve_and_cache () =
  let w, a, b = pair_world () in
  let arp = N.Stack.arp a.stack in
  let mac = run w (N.Arp.resolve arp (N.Stack.address b.stack)) in
  check_string "resolved b's mac" (N.Macaddr.to_bytes (N.Stack.mac b.stack))
    (N.Macaddr.to_bytes mac);
  let sent_before = N.Arp.requests_sent arp in
  ignore (run w (N.Arp.resolve arp (N.Stack.address b.stack)));
  check_int "cache hit sends nothing" sent_before (N.Arp.requests_sent arp);
  check_bool "cached" true (N.Arp.cached arp (N.Stack.address b.stack) <> None)

let test_arp_resolution_failure () =
  let w, a, _ = pair_world () in
  let arp = N.Stack.arp a.stack in
  match run w (N.Arp.resolve arp (N.Ipaddr.of_string "10.0.0.99")) with
  | exception N.Arp.Resolution_failed _ -> ()
  | _ -> Alcotest.fail "resolving a ghost must fail"

let test_arp_gratuitous_announce () =
  let w, a, b = pair_world () in
  (* Stack.create announces; b may already have learned a. Flush by
     checking the cache directly after an explicit announce. *)
  ignore (run w (N.Arp.announce (N.Stack.arp a.stack)));
  Engine.Sim.run w.sim;
  check_bool "b learned a from gratuitous arp" true
    (N.Arp.cached (N.Stack.arp b.stack) (N.Stack.address a.stack) <> None)

(* ---- ICMP ---- *)

let test_ping () =
  let w, a, b = pair_world () in
  let rtt = run w (N.Icmp4.ping (N.Stack.icmp a.stack) ~dst:(N.Stack.address b.stack) ~seq:1) in
  check_bool "positive rtt" true (rtt > 0);
  check_int "b answered" 1 (N.Icmp4.echo_requests_answered (N.Stack.icmp b.stack));
  check_int "a saw reply" 1 (N.Icmp4.echo_replies_received (N.Stack.icmp a.stack))

let test_ping_flood_survives () =
  let w, a, b = pair_world () in
  let icmp = N.Stack.icmp a.stack in
  let dst = N.Stack.address b.stack in
  let rec flood n acc =
    if n = 0 then P.return acc
    else N.Icmp4.ping icmp ~dst ~seq:n >>= fun rtt -> flood (n - 1) (acc + min rtt 1)
  in
  let ok = run w (flood 1000 0) in
  check_int "all 1000 pings answered" 1000 ok

let test_mirage_ping_latency_vs_linux () =
  (* Paper 4.1.3: Mirage 4-10% above Linux. Compare two receivers. *)
  let w = create () in
  let client = host w ~platform:Platform.linux_native ~name:"client" ~ip:"10.0.0.9" () in
  let lin = host w ~platform:Platform.linux_pv ~name:"lin" ~ip:"10.0.0.10" () in
  let mir = host w ~platform:Platform.xen_extent ~name:"mir" ~ip:"10.0.0.11" () in
  let avg dst =
    let icmp = N.Stack.icmp client.stack in
    let rec go n acc =
      if n = 0 then P.return acc
      else N.Icmp4.ping icmp ~dst ~seq:n >>= fun rtt -> go (n - 1) (acc + rtt)
    in
    run w (go 200 0) / 200
  in
  let lin_rtt = avg (N.Stack.address lin.stack) in
  let mir_rtt = avg (N.Stack.address mir.stack) in
  check_bool
    (Printf.sprintf "mirage (%d ns) within 25%% of linux (%d ns)" mir_rtt lin_rtt)
    true
    (float_of_int mir_rtt < float_of_int lin_rtt *. 1.25
     && float_of_int mir_rtt > float_of_int lin_rtt *. 0.8)

(* ---- UDP ---- *)

let test_udp_roundtrip () =
  let w, a, b = pair_world () in
  let got = ref None in
  N.Udp.listen (N.Stack.udp b.stack) ~port:7 (fun ~src ~src_port ~dst_port:_ ~payload ->
      got := Some (src, src_port, Bytestruct.to_string payload));
  ignore
    (run w
       (N.Udp.sendto (N.Stack.udp a.stack) ~src_port:555 ~dst:(N.Stack.address b.stack)
          ~dst_port:7 (bs "ping!")));
  Engine.Sim.run w.sim;
  (match !got with
  | Some (src, src_port, payload) ->
    check_bool "src ip" true (N.Ipaddr.equal src (N.Stack.address a.stack));
    check_int "src port" 555 src_port;
    check_string "payload" "ping!" payload
  | None -> Alcotest.fail "datagram not delivered");
  check_int "no checksum failures" 0 (N.Udp.checksum_failures (N.Stack.udp b.stack))

let test_udp_no_listener_counted () =
  let w, a, b = pair_world () in
  ignore
    (run w
       (N.Udp.sendto (N.Stack.udp a.stack) ~src_port:1 ~dst:(N.Stack.address b.stack)
          ~dst_port:9999 (bs "void")));
  Engine.Sim.run w.sim;
  check_int "no_listener" 1 (N.Udp.no_listener (N.Stack.udp b.stack))

let test_udp_unlisten () =
  let w, a, b = pair_world () in
  let got = ref 0 in
  N.Udp.listen (N.Stack.udp b.stack) ~port:5 (fun ~src:_ ~src_port:_ ~dst_port:_ ~payload:_ ->
      incr got);
  let send () =
    ignore
      (run w
         (N.Udp.sendto (N.Stack.udp a.stack) ~src_port:2 ~dst:(N.Stack.address b.stack)
            ~dst_port:5 (bs "x")));
    Engine.Sim.run w.sim
  in
  send ();
  N.Udp.unlisten (N.Stack.udp b.stack) ~port:5;
  send ();
  check_int "one delivery" 1 !got

(* ---- DHCP ---- *)

let test_dhcp_lease () =
  let w = create () in
  let server = host w ~platform:Platform.linux_pv ~name:"dhcpd" ~ip:"10.0.0.1" () in
  let ds =
    N.Dhcp.Server.create w.sim (N.Stack.udp server.stack)
      ~server_ip:(N.Stack.address server.stack)
      ~netmask:(N.Ipaddr.of_string "255.255.255.0")
      ~gateway:(N.Ipaddr.of_string "10.0.0.254")
      ~pool_start:(N.Ipaddr.of_string "10.0.0.100") ~pool_size:10 ()
  in
  (* Client host comes up with DHCP. *)
  let dom = domain w ~name:"dhcp-client" () in
  let nic = Netsim.Bridge.new_nic w.bridge ~mac:(Netsim.mac_of_int 77) () in
  let netif = Devices.Netif.connect w.hv ~dom ~backend_dom:w.dom0 ~nic () in
  let stack = run w (N.Stack.create w.sim ~dom ~netif N.Stack.Dhcp) in
  check_string "leased first pool address" "10.0.0.100" (N.Ipaddr.to_string (N.Stack.address stack));
  check_int "one lease granted" 1 (N.Dhcp.Server.leases_granted ds);
  (* Same client re-acquiring gets the same address. *)
  let udp = N.Stack.udp stack in
  let lease2 = run w (N.Dhcp.Client.acquire w.sim udp ~mac:(N.Stack.mac stack)) in
  check_string "stable re-lease" "10.0.0.100" (N.Ipaddr.to_string lease2.N.Dhcp.address);
  check_bool "gateway conveyed" true
    (lease2.N.Dhcp.gateway = Some (N.Ipaddr.of_string "10.0.0.254"))

let test_dhcp_pool_exhaustion () =
  let w = create () in
  let server = host w ~platform:Platform.linux_pv ~name:"dhcpd2" ~ip:"10.0.0.1" () in
  ignore
    (N.Dhcp.Server.create w.sim (N.Stack.udp server.stack)
       ~server_ip:(N.Stack.address server.stack)
       ~netmask:(N.Ipaddr.of_string "255.255.255.0")
       ~pool_start:(N.Ipaddr.of_string "10.0.0.100") ~pool_size:1 ());
  let acquire mac_idx =
    let dom = domain w ~name:(Printf.sprintf "dc%d" mac_idx) () in
    let nic = Netsim.Bridge.new_nic w.bridge ~mac:(Netsim.mac_of_int (800 + mac_idx)) () in
    let netif = Devices.Netif.connect w.hv ~dom ~backend_dom:w.dom0 ~nic () in
    N.Stack.create w.sim ~dom ~netif N.Stack.Dhcp
  in
  let first = run w (acquire 1) in
  check_string "first lease" "10.0.0.100" (N.Ipaddr.to_string (N.Stack.address first));
  match run w (acquire 2) with
  | exception P.Timeout -> ()
  | _ -> Alcotest.fail "empty pool must starve the second client"

(* ---- TCP wire ---- *)

let test_seq_arithmetic () =
  let module S = N.Tcp_wire.Seq in
  let near_wrap = S.of_int 0xFFFFFFF0 in
  let wrapped = S.add near_wrap 0x20 in
  check_int "wraps" 0x10 (S.to_int wrapped);
  check_bool "lt across wrap" true (S.lt near_wrap wrapped);
  check_int "diff across wrap" 0x20 (S.diff wrapped near_wrap);
  check_int "negative diff" (-0x20) (S.diff near_wrap wrapped);
  check_bool "geq self" true (S.geq near_wrap near_wrap)

let arbitrary_segment =
  QCheck.make
    (QCheck.Gen.map
       (fun ((sp, dp), (seq, ack), (flags_bits, window), payload) ->
         {
           N.Tcp_wire.src_port = sp land 0xffff;
           dst_port = dp land 0xffff;
           seq = N.Tcp_wire.Seq.of_int seq;
           ack = N.Tcp_wire.Seq.of_int ack;
           flags =
             {
               N.Tcp_wire.syn = flags_bits land 1 <> 0;
               ack = flags_bits land 2 <> 0;
               fin = flags_bits land 4 <> 0;
               rst = flags_bits land 8 <> 0;
               psh = flags_bits land 16 <> 0;
             };
           window = window land 0xffff;
           options = (if flags_bits land 1 <> 0 then [ N.Tcp_wire.Mss 1400; N.Tcp_wire.Window_scale 7 ] else []);
           payload = Bytestruct.of_string payload;
         })
       QCheck.Gen.(
         quad (pair nat nat)
           (pair (int_bound 0xFFFFFFF) (int_bound 0xFFFFFFF))
           (pair (int_bound 31) nat) (string_size (int_range 0 600))))

(* One contiguous copy of a scatter list. *)
let flatten views = bs (String.concat "" (List.map Bytestruct.to_string views))

let prop_tcp_wire_roundtrip =
  qtest "tcp segment encode/decode roundtrip" arbitrary_segment (fun seg ->
      let src = N.Ipaddr.v4 1 2 3 4 and dst = N.Ipaddr.v4 5 6 7 8 in
      let buf = flatten (N.Tcp_wire.encode ~src ~dst seg) in
      match N.Tcp_wire.decode ~src ~dst buf with
      | Error _ -> false
      | Ok seg' ->
        seg'.N.Tcp_wire.src_port = seg.N.Tcp_wire.src_port
        && seg'.N.Tcp_wire.dst_port = seg.N.Tcp_wire.dst_port
        && N.Tcp_wire.Seq.equal seg'.N.Tcp_wire.seq seg.N.Tcp_wire.seq
        && N.Tcp_wire.Seq.equal seg'.N.Tcp_wire.ack seg.N.Tcp_wire.ack
        && seg'.N.Tcp_wire.flags = seg.N.Tcp_wire.flags
        && seg'.N.Tcp_wire.window = seg.N.Tcp_wire.window
        && Bytestruct.equal seg'.N.Tcp_wire.payload seg.N.Tcp_wire.payload)

let test_tcp_wire_checksum_rejected () =
  let seg =
    { N.Tcp_wire.src_port = 1; dst_port = 2; seq = N.Tcp_wire.Seq.zero; ack = N.Tcp_wire.Seq.zero;
      flags = N.Tcp_wire.flags_none; window = 0; options = []; payload = bs "data" }
  in
  let src = N.Ipaddr.v4 1 2 3 4 and dst = N.Ipaddr.v4 5 6 7 8 in
  let buf = flatten (N.Tcp_wire.encode ~src ~dst seg) in
  Bytestruct.set_uint8 buf 22 (Bytestruct.get_uint8 buf 22 lxor 0xff);
  match N.Tcp_wire.decode ~src ~dst buf with
  | Error `Bad_checksum -> ()
  | _ -> Alcotest.fail "corruption must be detected"

(* ---- TCP behaviour ---- *)

let transfer w a b ~bytes ~chunk =
  let received = Buffer.create bytes in
  let server_done, server_u = P.wait () in
  N.Tcp.listen (N.Stack.tcp b.stack) ~port:5001 (fun flow ->
      let rec drain () =
        N.Tcp.read flow >>= function
        | None ->
          P.wakeup server_u ();
          P.return ()
        | Some c ->
          Buffer.add_string received (Bytestruct.to_string c);
          drain ()
      in
      drain ());
  let data = pattern bytes in
  let client =
    N.Tcp.connect (N.Stack.tcp a.stack) ~dst:(N.Stack.address b.stack) ~dst_port:5001
    >>= fun flow ->
    let rec send off =
      if off >= bytes then N.Tcp.close flow
      else begin
        let n = min chunk (bytes - off) in
        N.Tcp.write flow (bs (String.sub data off n)) >>= fun () -> send (off + n)
      end
    in
    send 0 >>= fun () -> P.return flow
  in
  let flow = run w client in
  ignore (run w server_done);
  (Buffer.contents received, data, flow)

let test_tcp_handshake_and_transfer () =
  let w, a, b = pair_world () in
  let received, data, flow = transfer w a b ~bytes:100_000 ~chunk:8192 in
  check_int "all bytes delivered" (String.length data) (String.length received);
  check_bool "contents intact" true (received = data);
  check_bool "no retransmissions on clean link" true
    (N.Tcp.retransmissions (N.Stack.tcp a.stack) = 0);
  check_string "sender reached FIN_WAIT" "FIN_WAIT_2" (N.Tcp.state_name flow)

let test_tcp_bidirectional () =
  let w, a, b = pair_world () in
  N.Tcp.listen (N.Stack.tcp b.stack) ~port:7 (fun flow ->
      (* echo server *)
      let rec echo () =
        N.Tcp.read flow >>= function
        | None -> N.Tcp.close flow
        | Some c -> N.Tcp.write flow c >>= echo
      in
      echo ());
  let session =
    N.Tcp.connect (N.Stack.tcp a.stack) ~dst:(N.Stack.address b.stack) ~dst_port:7
    >>= fun flow ->
    N.Tcp.write flow (bs "echo me") >>= fun () ->
    N.Tcp.read flow >>= function
    | Some c ->
      N.Tcp.close flow >>= fun () -> P.return (Bytestruct.to_string c)
    | None -> P.fail Exit
  in
  check_string "echoed" "echo me" (run w session)

let test_tcp_connection_refused () =
  let w, a, b = pair_world () in
  match run w (N.Tcp.connect (N.Stack.tcp a.stack) ~dst:(N.Stack.address b.stack) ~dst_port:81) with
  | exception N.Tcp.Connection_refused -> ()
  | _ -> Alcotest.fail "RST expected for closed port"

let test_tcp_survives_loss () =
  let w, a, b = pair_world () in
  Netsim.Bridge.set_loss w.bridge a.nic 0.05;
  Netsim.Bridge.set_loss w.bridge b.nic 0.05;
  let received, data, _ = transfer w a b ~bytes:300_000 ~chunk:4096 in
  check_bool "delivered despite 5% loss" true (received = data);
  check_bool "retransmissions happened" true (N.Tcp.retransmissions (N.Stack.tcp a.stack) > 0)

let test_tcp_fast_retransmit_used () =
  let w, a, b = pair_world () in
  Netsim.Bridge.set_loss w.bridge a.nic 0.02;
  let received, data, _ = transfer w a b ~bytes:500_000 ~chunk:8192 in
  check_bool "delivered" true (received = data);
  check_bool "fast retransmit triggered" true (N.Tcp.fast_retransmits (N.Stack.tcp a.stack) > 0)

let test_tcp_heavy_loss_rto () =
  let w, a, b = pair_world () in
  Netsim.Bridge.set_loss w.bridge a.nic 0.25;
  Netsim.Bridge.set_loss w.bridge b.nic 0.25;
  let received, data, _ = transfer w a b ~bytes:50_000 ~chunk:2048 in
  check_bool "delivered despite 25% loss" true (received = data);
  check_bool "RTO fired" true (N.Tcp.rto_fires (N.Stack.tcp a.stack) > 0)

let test_tcp_flow_control_backpressure () =
  (* Server does not read for 100 ms: the sender must stall at the
     receive window, not lose data. *)
  let o =
    Scenario.bulk_transfer ~seed:42 ~schedule:(fun ~now:_ -> Netsim.Faults.none) ~bytes:600_000
      ~chunk:8192 ~stall_ns:(Engine.Sim.ms 100) ~deadline_ns:(Engine.Sim.sec 30) ()
  in
  check_bool "all delivered after stall" true (o.eof_ns <> None && o.intact)

let test_tcp_concurrent_flows () =
  let w, a, b = pair_world () in
  let counts = Array.make 8 0 in
  N.Tcp.listen (N.Stack.tcp b.stack) ~port:5001 (fun flow ->
      let rec drain () =
        N.Tcp.read flow >>= function
        | None -> P.return ()
        | Some c ->
          let id = Bytestruct.get_uint8 c 0 mod 8 in
          counts.(id) <- counts.(id) + Bytestruct.length c;
          drain ()
      in
      drain ());
  let one i =
    N.Tcp.connect (N.Stack.tcp a.stack) ~dst:(N.Stack.address b.stack) ~dst_port:5001
    >>= fun flow ->
    let payload = String.make 20_000 (Char.chr i) in
    N.Tcp.write flow (bs payload) >>= fun () -> N.Tcp.close flow
  in
  ignore (run w (P.join (List.init 8 one)));
  Engine.Sim.run w.sim;
  Array.iteri (fun i c -> check_int (Printf.sprintf "flow %d complete" i) 20_000 c) counts

let test_tcp_listener_accepts_many () =
  let w, a, b = pair_world () in
  let accepted = ref 0 in
  N.Tcp.listen (N.Stack.tcp b.stack) ~port:5001 (fun flow ->
      incr accepted;
      N.Tcp.close flow);
  let connect_once () =
    N.Tcp.connect (N.Stack.tcp a.stack) ~dst:(N.Stack.address b.stack) ~dst_port:5001
    >>= fun flow -> N.Tcp.read flow >>= fun _ -> N.Tcp.close flow
  in
  ignore (run w (P.join (List.init 20 (fun _ -> connect_once ()))));
  check_int "all accepted" 20 !accepted

let test_tcp_abort_resets_peer () =
  let w, a, b = pair_world () in
  let server_saw_reset, reset_u = P.wait () in
  N.Tcp.listen (N.Stack.tcp b.stack) ~port:5001 (fun flow ->
      P.catch
        (fun () ->
          let rec drain () =
            N.Tcp.read flow >>= function None -> P.return () | Some _ -> drain ()
          in
          drain ())
        (function
          | N.Tcp.Connection_reset ->
            P.wakeup reset_u ();
            P.return ()
          | e -> P.fail e)
      >>= fun () ->
      (* reading None after reset also counts *)
      if P.state server_saw_reset = `Pending && N.Tcp.state_name flow = "CLOSED" then
        P.wakeup reset_u ();
      P.return ());
  let flow =
    run w (N.Tcp.connect (N.Stack.tcp a.stack) ~dst:(N.Stack.address b.stack) ~dst_port:5001)
  in
  N.Tcp.abort flow;
  Engine.Sim.run w.sim;
  check_string "client closed" "CLOSED" (N.Tcp.state_name flow)

let test_tcp_mss_respected () =
  let w, a, b = pair_world () in
  let max_seg = ref 0 in
  ignore
  @@ Netsim.Bridge.tap w.bridge (fun ~dir:_ ~link:_ ~time_ns:_ frame ->
      if Bytestruct.length frame >= 34 && Bytestruct.get_uint8 frame 23 = 6 then begin
        let total_len = Bytestruct.BE.get_uint16 frame 16 in
        let ihl = (Bytestruct.get_uint8 frame 14 land 0xf) * 4 in
        let seg = Bytestruct.sub (Bytestruct.shift frame 14) ihl (total_len - ihl) in
        let data_off = (Bytestruct.BE.get_uint16 seg 12 lsr 12) * 4 in
        max_seg := max !max_seg (Bytestruct.length seg - data_off)
      end);
  ignore (transfer w a b ~bytes:100_000 ~chunk:65536);
  check_bool (Printf.sprintf "segments bounded by mss (saw %d)" !max_seg) true (!max_seg <= 1448)

let test_tcp_cwnd_grows () =
  let w, a, b = pair_world () in
  let _, _, flow = transfer w a b ~bytes:400_000 ~chunk:16384 in
  check_bool "congestion window grew past initial" true (N.Tcp.cwnd flow > 10 * 1448)

let test_tcp_server_initiated_close () =
  let w, a, b = pair_world () in
  N.Tcp.listen (N.Stack.tcp b.stack) ~port:5001 (fun flow ->
      N.Tcp.write flow (bs "goodbye") >>= fun () -> N.Tcp.close flow);
  let session =
    N.Tcp.connect (N.Stack.tcp a.stack) ~dst:(N.Stack.address b.stack) ~dst_port:5001
    >>= fun flow ->
    N.Tcp.read flow >>= fun first ->
    N.Tcp.read flow >>= fun second ->
    N.Tcp.close flow >>= fun () -> P.return (first, second)
  in
  let first, second = run w session in
  check_bool "data before close" true
    (match first with Some c -> Bytestruct.to_string c = "goodbye" | None -> false);
  check_bool "then EOF" true (second = None)

let test_tcp_write_after_close_fails () =
  let w, a, b = pair_world () in
  N.Tcp.listen (N.Stack.tcp b.stack) ~port:5001 (fun flow ->
      let rec drain () = N.Tcp.read flow >>= function None -> P.return () | Some _ -> drain () in
      drain ());
  let outcome =
    run w
      (N.Tcp.connect (N.Stack.tcp a.stack) ~dst:(N.Stack.address b.stack) ~dst_port:5001
       >>= fun flow ->
       N.Tcp.close flow >>= fun () ->
       P.catch
         (fun () -> N.Tcp.write flow (bs "late") >|= fun () -> `Accepted)
         (fun _ -> P.return `Refused))
  in
  check_bool "write after close refused" true (outcome = `Refused)

let test_tcp_unlisten_refuses () =
  let w, a, b = pair_world () in
  N.Tcp.listen (N.Stack.tcp b.stack) ~port:5001 (fun flow -> N.Tcp.close flow);
  N.Tcp.unlisten (N.Stack.tcp b.stack) ~port:5001;
  match run w (N.Tcp.connect (N.Stack.tcp a.stack) ~dst:(N.Stack.address b.stack) ~dst_port:5001) with
  | exception N.Tcp.Connection_refused -> ()
  | _ -> Alcotest.fail "unlistened port must refuse"

let test_tcp_half_close_peer_can_still_send () =
  (* a closes its direction; b keeps sending; a reads it all *)
  let w, a, b = pair_world () in
  let server_flow, server_u = P.wait () in
  N.Tcp.listen (N.Stack.tcp b.stack) ~port:5001 (fun flow ->
      P.wakeup server_u flow;
      let rec drain () = N.Tcp.read flow >>= function None -> P.return () | Some _ -> drain () in
      drain ());
  let client_flow =
    run w (N.Tcp.connect (N.Stack.tcp a.stack) ~dst:(N.Stack.address b.stack) ~dst_port:5001)
  in
  ignore (run w (N.Tcp.close client_flow)) (* half-close: FIN sent *);
  let sflow = run w server_flow in
  ignore (run w (N.Tcp.write sflow (bs "after your fin")));
  let got = run w (N.Tcp.read client_flow) in
  check_bool "data flows against the half-close" true
    (match got with Some c -> Bytestruct.to_string c = "after your fin" | None -> false)

(* A client and a server that each read one chunk and close without
   reading to end-of-stream. The chunk each read last must go back to
   the pool when the flow leaves the table: 2 MSL after TIME_WAIT on the
   server (the active closer), at the final ACK on the client. *)
let test_tcp_discarded_flows_release_pool_refs () =
  let w, a, b = pair_world () in
  N.Tcp.listen (N.Stack.tcp b.stack) ~port:80 (fun flow ->
      N.Tcp.read flow >>= fun _ ->
      N.Tcp.write flow (bs "HTTP/1.0 200 OK\r\n\r\nhi") >>= fun () -> N.Tcp.close flow);
  let get () =
    N.Tcp.connect (N.Stack.tcp a.stack) ~dst:(N.Stack.address b.stack) ~dst_port:80
    >>= fun flow ->
    N.Tcp.write flow (bs "GET / HTTP/1.0\r\n\r\n") >>= fun () ->
    N.Tcp.read flow >>= fun _ -> N.Tcp.close flow
  in
  for _ = 1 to 20 do
    run w (get ())
  done;
  Engine.Sim.run w.sim (* past every 2-MSL linger *);
  check_int "client pool: nothing outstanding" 0 (Pktbuf.outstanding (Devices.Netif.pool a.netif));
  check_int "server pool: nothing outstanding" 0 (Pktbuf.outstanding (Devices.Netif.pool b.netif))

(* Data that arrived but was never read is copied out of the pool when
   the flow leaves the table, and a late reader still gets it. *)
let test_tcp_unread_data_survives_flow_removal () =
  let w, a, b = pair_world () in
  N.Tcp.listen (N.Stack.tcp b.stack) ~port:5001 (fun flow ->
      N.Tcp.write flow (bs "unread") >>= fun () -> N.Tcp.close flow);
  let flow =
    run w (N.Tcp.connect (N.Stack.tcp a.stack) ~dst:(N.Stack.address b.stack) ~dst_port:5001)
  in
  Engine.Sim.run w.sim;
  run w (N.Tcp.close flow);
  check_string "flow left the table" "CLOSED" (N.Tcp.state_name flow);
  check_int "pool reference returned" 0 (Pktbuf.outstanding (Devices.Netif.pool a.netif));
  check_bool "late read sees the bytes" true
    (match run w (N.Tcp.read flow) with
    | Some c -> Bytestruct.to_string c = "unread"
    | None -> false);
  check_bool "then end-of-stream" true (run w (N.Tcp.read flow) = None)

(* A connection that finishes closing holds no pool page, 2 MSL early.
   Each end reads one chunk and keeps it; the client leaves a second
   chunk unread. Whichever end closes first (or both at once) lingers
   in TIME_WAIT, and by then the chunk it read last is released and the
   unread one copied out: a late read still sees its bytes. *)
let test_tcp_time_wait_holds_no_pool_refs () =
  let scenario label ~client_close ~server_close =
    let w, a, b = pair_world () in
    let ta = N.Stack.tcp a.stack and tb = N.Stack.tcp b.stack in
    let server = ref None and held = ref [] in
    let at delay flow =
      ignore (Engine.Sim.schedule w.sim ~delay (fun () -> ignore (N.Tcp.close flow)))
    in
    N.Tcp.listen tb ~port:5001 (fun flow ->
        server := Some flow;
        N.Tcp.read flow >>= fun c ->
        held := c :: !held;
        N.Tcp.write flow (bs "first") >>= fun () ->
        P.sleep w.sim (Engine.Sim.ms 1) >>= fun () ->
        N.Tcp.write flow (bs "second") >>= fun () ->
        at server_close flow;
        P.return ());
    let client =
      run w
        ( N.Tcp.connect ta ~dst:(N.Stack.address b.stack) ~dst_port:5001 >>= fun flow ->
          N.Tcp.write flow (bs "hello") >>= fun () ->
          N.Tcp.read flow >>= fun c ->
          held := c :: !held;
          P.return flow )
    in
    at client_close client;
    let start = Engine.Sim.now w.sim in
    let flows () = client :: Option.to_list !server in
    let finished f = List.mem (N.Tcp.state_name f) [ "TIME_WAIT"; "CLOSED" ] in
    while not (List.length (flows ()) = 2 && List.for_all finished (flows ())) do
      if not (Engine.Sim.step w.sim) then Alcotest.failf "%s: the connection never closed" label
    done;
    check_int (label ^ ": both ends read a chunk") 2 (List.length !held);
    check_bool (label ^ ": an end lingers in TIME_WAIT") true
      (List.exists (fun f -> N.Tcp.state_name f = "TIME_WAIT") (flows ()));
    check_bool (label ^ ": within 2 MSL") true
      (Engine.Sim.now w.sim < start + Engine.Sim.sec 2);
    check_int (label ^ ": client pool empty") 0 (Pktbuf.outstanding (Devices.Netif.pool a.netif));
    check_int (label ^ ": server pool empty") 0 (Pktbuf.outstanding (Devices.Netif.pool b.netif));
    check_bool (label ^ ": the unread chunk survives") true
      (match run w (N.Tcp.read client) with
      | Some c -> Bytestruct.to_string c = "second"
      | None -> false);
    check_bool (label ^ ": then end-of-stream") true (run w (N.Tcp.read client) = None);
    Engine.Sim.run w.sim;
    check_int (label ^ ": both flows gone") 0 (N.Tcp.active_flows ta + N.Tcp.active_flows tb)
  in
  let ms = Engine.Sim.ms in
  scenario "client closes first" ~client_close:(ms 20) ~server_close:(ms 40);
  scenario "server closes first" ~client_close:(ms 40) ~server_close:(ms 20);
  scenario "simultaneous close" ~client_close:(ms 20) ~server_close:(ms 20)

(* [data] in 8 KB writes, then [close]. Beyond the 128 KB receive window
   plus the 256 KB send buffer, a writer whose bytes are not acknowledged
   blocks — and a flow that gives up wakes it with [Timeout]. *)
let write_then_close flow data =
  let len = String.length data in
  let rec send off =
    if off >= len then N.Tcp.close flow
    else
      N.Tcp.write flow (bs (String.sub data off (min 8192 (len - off)))) >>= fun () ->
      send (off + 8192)
  in
  send 0

(* ACKs must cancel every RTO they make obsolete, so a clean transfer
   fires none — also when the reader stalls long enough for the sender
   to probe a zero window — and once both flows have left the table the
   simulator holds no TCP event. The check in between is the sharp one:
   when each flow is either gone or lingering 2 MSL in TIME_WAIT, only
   the lingers may be pending — a stale RTO or persist event would still
   be queued, not yet fired. *)
let test_tcp_clean_transfer_leaves_no_timer () =
  let scenario ~stall =
    let w, a, b = pair_world () in
    Engine.Sim.run w.sim;
    let before = Engine.Sim.pending w.sim in
    let ta = N.Stack.tcp a.stack and tb = N.Stack.tcp b.stack in
    let server = ref None in
    let resume, resume_u = P.wait () in
    N.Tcp.listen tb ~port:5001 (fun flow ->
        server := Some flow;
        let rec drain () =
          N.Tcp.read flow >>= function None -> N.Tcp.close flow | Some _ -> drain ()
        in
        if stall then resume >>= drain else drain ());
    let client =
      run w
        ( N.Tcp.connect ta ~dst:(N.Stack.address b.stack) ~dst_port:5001 >>= fun flow ->
          if stall then
            ignore (Engine.Sim.schedule w.sim ~delay:(Engine.Sim.ms 300) (P.wakeup resume_u));
          write_then_close flow (pattern 500_000) >>= fun () -> P.return flow )
    in
    let flows = [ client; Option.get !server ] in
    let count state = List.length (List.filter (fun f -> N.Tcp.state_name f = state) flows) in
    while count "TIME_WAIT" + count "CLOSED" < 2 do
      ignore (Engine.Sim.step w.sim)
    done;
    (* let in-flight frames land; any RTO is at least 50 ms out *)
    Engine.Sim.run w.sim ~until:(Engine.Sim.now w.sim + Engine.Sim.ms 10);
    let path = if stall then "stalled reader" else "steady reader" in
    if stall then check_bool "persist probes were sent" true (N.Tcp.persist_probes ta > 0);
    check_bool (path ^ ": a flow lingers") true (count "TIME_WAIT" > 0);
    check_int (path ^ ": only the 2-MSL lingers pending") (before + count "TIME_WAIT")
      (Engine.Sim.pending w.sim);
    while N.Tcp.active_flows ta + N.Tcp.active_flows tb > 0 do
      ignore (Engine.Sim.step w.sim)
    done;
    check_int (path ^ ": no client RTO fired") 0 (N.Tcp.rto_fires ta);
    check_int (path ^ ": no server RTO fired") 0 (N.Tcp.rto_fires tb);
    check_int (path ^ ": no TCP event pending") before (Engine.Sim.pending w.sim)
  in
  scenario ~stall:false;
  scenario ~stall:true

(* 200 back-to-back connections, each closed by the client, leave 200
   flows lingering 2 MSL (MSL = 1 s) in TIME_WAIT at once; the lingers
   share one lane per engine. Stepping one event at a time, a flow seen
   in TIME_WAIT first after the event at [t] must turn CLOSED, and leave
   the table, at the event at exactly [t + 2 MSL]: it was still there
   after every earlier event, so at [t + 2 MSL - 1] too. Flows leave in
   the order they entered, the table holds exactly the flows not yet
   closed after every event, and nothing stays pending. *)
let test_tcp_time_wait_churn () =
  let conns = 200 and two_msl = Engine.Sim.sec 2 in
  let w, a, b = pair_world () in
  Engine.Sim.run w.sim;
  let before = Engine.Sim.pending w.sim in
  let ta = N.Stack.tcp a.stack and tb = N.Stack.tcp b.stack in
  let live = ref [] and tracked = ref 0 and clients = ref [] in
  let track flow =
    live := (!tracked, flow) :: !live;
    incr tracked
  in
  N.Tcp.listen tb ~port:5001 (fun flow ->
      track flow;
      let rec drain () =
        N.Tcp.read flow >>= function None -> N.Tcp.close flow | Some _ -> drain ()
      in
      drain ());
  let rec connect_all k =
    if k = 0 then P.return ()
    else
      N.Tcp.connect ta ~dst:(N.Stack.address b.stack) ~dst_port:5001 >>= fun flow ->
      clients := !tracked :: !clients;
      track flow;
      N.Tcp.write flow (bs "x") >>= fun () ->
      N.Tcp.close flow >>= fun () -> connect_all (k - 1)
  in
  let all_closed = connect_all conns in
  let entered = Hashtbl.create 256 and entries = ref [] and leaves = ref [] in
  while Engine.Sim.step w.sim do
    let now = Engine.Sim.now w.sim in
    live :=
      List.filter
        (fun (id, flow) ->
          match N.Tcp.state_name flow with
          | "TIME_WAIT" ->
            if not (Hashtbl.mem entered id) then begin
              Hashtbl.replace entered id now;
              entries := id :: !entries
            end;
            true
          | "CLOSED" ->
            Option.iter
              (fun t ->
                check_int (Printf.sprintf "flow %d leaves 2 MSL after TIME_WAIT" id) (t + two_msl)
                  now;
                leaves := id :: !leaves)
              (Hashtbl.find_opt entered id);
            false
          | _ -> true)
        (List.rev !live)
      |> List.rev;
    let lingering t =
      List.length (List.filter (fun r -> r.N.Tcp.si_state = "TIME_WAIT") (N.Tcp.sockets t))
    in
    check_int "the table holds the lingering flows"
      (List.length (List.filter (fun (id, _) -> Hashtbl.mem entered id) !live))
      (lingering ta + lingering tb)
  done;
  check_bool "every connection closed" true (P.state all_closed = `Resolved ());
  check_int "both ends of every connection tracked" (2 * conns) !tracked;
  check_int "every client flow lingered" conns
    (List.length (List.filter (Hashtbl.mem entered) !clients));
  check Alcotest.(list int) "flows leave in entry order" (List.rev !entries) (List.rev !leaves);
  check_int "pending back at its start value" before (Engine.Sim.pending w.sim)

(* The peer vanishes (every frame either way is dropped) and the sender
   gives up with [Timeout] — through RTO backoff with data in flight, or
   through unanswered persist probes against a zero window. The failed
   flow must leave no RTO or persist event behind. *)
let test_tcp_vanished_peer_leaves_no_timer () =
  let scenario ~zero_window =
    let w, a, b = pair_world () in
    Engine.Sim.run w.sim;
    let before = Engine.Sim.pending w.sim in
    let ta = N.Stack.tcp a.stack in
    N.Tcp.listen (N.Stack.tcp b.stack) ~port:5001 (fun flow ->
        if zero_window then P.return () (* never reads: the window closes *)
        else
          let rec sink () = N.Tcp.read flow >>= function None -> P.return () | Some _ -> sink () in
          sink ());
    let vanish () =
      Netsim.Bridge.set_loss w.bridge a.nic 1.0;
      Netsim.Bridge.set_loss w.bridge b.nic 1.0
    in
    let outcome =
      run w
        (P.catch
           (fun () ->
             N.Tcp.connect ta ~dst:(N.Stack.address b.stack) ~dst_port:5001 >>= fun flow ->
             (* with a zero window, vanish only once the sender is probing *)
             if zero_window then
               ignore (Engine.Sim.schedule w.sim ~delay:(Engine.Sim.ms 400) vanish)
             else vanish ();
             write_then_close flow (pattern 500_000) >>= fun () -> P.return `Clean)
           (function P.Timeout -> P.return `Timeout | e -> P.fail e))
    in
    let path = if zero_window then "persist" else "rto" in
    check_bool (path ^ ": gave up with Timeout") true (outcome = `Timeout);
    if zero_window then begin
      check_bool "persist probes were sent" true (N.Tcp.persist_probes ta > 0);
      check_int "no RTO fired" 0 (N.Tcp.rto_fires ta)
    end
    else check_bool "RTOs fired" true (N.Tcp.rto_fires ta > 0);
    check_int (path ^ ": no RTO or persist event pending") before (Engine.Sim.pending w.sim)
  in
  scenario ~zero_window:false;
  scenario ~zero_window:true

(* ---- deterministic recovery paths ---- *)

(* TCP payload length of an Ethernet frame, 0 for anything that is not a
   TCP data segment — the parsing the scripted-drop tests use to aim at
   one precise segment. *)
let tcp_data_len frame =
  if Bytestruct.length frame < 34 then 0
  else if Bytestruct.BE.get_uint16 frame 12 <> 0x0800 then 0
  else if Bytestruct.get_uint8 frame 23 <> 6 then 0
  else begin
    let ihl = (Bytestruct.get_uint8 frame 14 land 0xf) * 4 in
    let total_len = Bytestruct.BE.get_uint16 frame 16 in
    let data_off = (Bytestruct.BE.get_uint16 frame (14 + ihl + 12) lsr 12) * 4 in
    total_len - ihl - data_off
  end

let test_tcp_fast_retransmit_three_dupacks () =
  (* Drop exactly the 10th data segment, once. The segments behind it in
     flight produce dupacks; the third must trigger fast retransmit and
     the hole must heal without any RTO. *)
  let w, a, b = pair_world () in
  let data_frames = ref 0 in
  let dropped = ref 0 in
  Netsim.Bridge.set_faults w.bridge a.nic
    (Netsim.Faults.make
       ~drop_when:(fun ~now_ns:_ ~nth:_ frame ->
         if tcp_data_len frame > 0 then begin
           incr data_frames;
           if !data_frames = 10 && !dropped = 0 then begin
             incr dropped;
             true
           end
           else false
         end
         else false)
       ());
  let received, data, _ = transfer w a b ~bytes:300_000 ~chunk:8192 in
  check_int "the one segment was dropped" 1 !dropped;
  check_bool "delivered intact" true (received = data);
  check_bool "fast retransmit fired" true (N.Tcp.fast_retransmits (N.Stack.tcp a.stack) >= 1);
  check_int "no RTO needed" 0 (N.Tcp.rto_fires (N.Stack.tcp a.stack))

let test_tcp_rto_backoff_and_slow_start () =
  (* A 300 ms outage on the sender's link: the RTO must fire, back off
     exponentially (so only a few fires fit in the outage, not outage/rto
     of them), collapse cwnd to one MSS, and recover once the link heals. *)
  let w, a, b = pair_world () in
  let received = Buffer.create 0 in
  let server_done, done_u = P.wait () in
  N.Tcp.listen (N.Stack.tcp b.stack) ~port:5001 (fun flow ->
      let rec drain () =
        N.Tcp.read flow >>= function
        | None ->
          P.wakeup done_u ();
          P.return ()
        | Some c ->
          Buffer.add_string received (Bytestruct.to_string c);
          drain ()
      in
      drain ());
  let bytes = 2_000_000 (* big enough that the outage hits mid-transfer *) in
  let data = pattern bytes in
  let flow =
    run w (N.Tcp.connect (N.Stack.tcp a.stack) ~dst:(N.Stack.address b.stack) ~dst_port:5001)
  in
  let now = Engine.Sim.now w.sim in
  Netsim.Bridge.set_faults w.bridge a.nic
    (Netsim.Faults.make ~flap:(now + Engine.Sim.ms 1, Engine.Sim.ms 300, Engine.Sim.sec 100) ());
  let cwnd_mid_outage = ref max_int in
  ignore
    (Engine.Sim.schedule w.sim ~delay:(Engine.Sim.ms 200) (fun () ->
         cwnd_mid_outage := N.Tcp.cwnd flow));
  P.async (fun () ->
      let rec send off =
        if off >= bytes then N.Tcp.close flow
        else
          N.Tcp.write flow (bs (String.sub data off (min 8192 (bytes - off)))) >>= fun () ->
          send (off + 8192)
      in
      send 0);
  ignore (run w server_done);
  check_bool "delivered intact after outage" true (Buffer.contents received = data);
  let rf = N.Tcp.rto_fires (N.Stack.tcp a.stack) in
  check_bool (Printf.sprintf "RTO fired (%d)" rf) true (rf >= 1);
  (* Without doubling, a ~50 ms RTO would fire ~6 times in 300 ms. *)
  check_bool (Printf.sprintf "backoff bounded the fires (%d)" rf) true (rf <= 4);
  check_int "cwnd collapsed to one MSS" 1448 !cwnd_mid_outage

let test_tcp_zero_window_persist_probe () =
  (* The reader stalls long enough for the sender to fill the receive
     window and go quiescent at snd_wnd = 0; only persist probes may keep
     the connection alive, and the transfer must complete once the reader
     resumes. *)
  let w, a, b = pair_world () in
  let start_reading, start_u = P.wait () in
  let received = Buffer.create 0 in
  let server_done, done_u = P.wait () in
  let server_flow, sflow_u = P.wait () in
  N.Tcp.listen (N.Stack.tcp b.stack) ~port:5001 (fun flow ->
      P.wakeup sflow_u flow;
      start_reading >>= fun () ->
      let rec drain () =
        N.Tcp.read flow >>= function
        | None ->
          P.wakeup done_u ();
          P.return ()
        | Some c ->
          Buffer.add_string received (Bytestruct.to_string c);
          drain ()
      in
      drain ());
  let bytes = 500_000 (* > rcv_wnd (128K) + snd_buf (256K): the writer must block *) in
  let data = pattern bytes in
  P.async (fun () ->
      N.Tcp.connect (N.Stack.tcp a.stack) ~dst:(N.Stack.address b.stack) ~dst_port:5001
      >>= fun flow ->
      let rec send off =
        if off >= bytes then N.Tcp.close flow
        else
          N.Tcp.write flow (bs (String.sub data off (min 8192 (bytes - off)))) >>= fun () ->
          send (off + 8192)
      in
      send 0);
  ignore (run w (P.sleep w.sim (Engine.Sim.ms 400)));
  let probes = N.Tcp.persist_probes (N.Stack.tcp a.stack) in
  check_bool (Printf.sprintf "persist probes sent while stalled (%d)" probes) true (probes >= 1);
  let sflow = run w server_flow in
  check_bool "receiver held the window (not flooded)" true
    (N.Tcp.bytes_received sflow <= 131072 + 4 * 1448);
  P.wakeup start_u ();
  ignore (run w server_done);
  check_bool "completed after reopen" true (Buffer.contents received = data)

let test_tcp_ooo_cap_eviction () =
  (* Tinygram flood behind a hole: drop the first data segment while the
     sender pours >128 tiny segments after it. The reassembly cap must
     evict, and retransmission must still complete the transfer intact. *)
  let w, a, b = pair_world () in
  let dropped = ref false in
  Netsim.Bridge.set_faults w.bridge a.nic
    (Netsim.Faults.make
       ~drop_when:(fun ~now_ns:_ ~nth:_ frame ->
         if (not !dropped) && tcp_data_len frame > 0 then begin
           dropped := true;
           true
         end
         else false)
       ());
  let received, data, _ = transfer w a b ~bytes:12_000 ~chunk:64 in
  check_bool "hole was punched" true !dropped;
  check_bool "delivered intact" true (received = data);
  check_bool "reassembly cap evicted" true (N.Tcp.ooo_evictions (N.Stack.tcp b.stack) >= 1)

(* ---- steady-state allocation guard ---- *)

(* The zero-copy datapath's regression tripwire: after warm-up (pools
   grown, ARP cached, reader buffers sized), the per-packet exclusive
   allocation of every stack hop below the application must stay inside
   a generous budget. A reintroduced defensive copy (wire frame, ring
   chunk, reassembly, deferred-segment clone) blows the budget of the
   hop it lands in. Budgets are ~3-4x the measured steady state, so
   they flag copies (KBs per packet), not compiler noise. *)
let test_dpath_steady_state_alloc_budget () =
  let w, a, b = pair_world () in
  (* App-light bulk exchange: the receiver drains and discards (no
     Buffer, no to_string) and the sender writes one preallocated block
     repeatedly, so what the hops measure is the stack itself — the
     sender's continuation and the reader's drain loop wake
     synchronously inside stack regions and must not drown them in
     harness garbage. *)
  let exchange ~blocks =
    let payload = bs (pattern 4096) in
    let bytes_rx = ref 0 in
    let server_done, server_u = P.wait () in
    N.Tcp.listen (N.Stack.tcp b.stack) ~port:5002 (fun flow ->
        let rec drain () =
          N.Tcp.read flow >>= function
          | None ->
            P.wakeup server_u ();
            P.return ()
          | Some c ->
            bytes_rx := !bytes_rx + Bytestruct.length c;
            drain ()
        in
        drain ());
    let client =
      N.Tcp.connect (N.Stack.tcp a.stack) ~dst:(N.Stack.address b.stack) ~dst_port:5002
      >>= fun flow ->
      let rec send n =
        if n = 0 then N.Tcp.close flow else N.Tcp.write flow payload >>= fun () -> send (n - 1)
      in
      send blocks
    in
    ignore (run w client);
    ignore (run w server_done);
    !bytes_rx
  in
  (* Warm-up: pools grown, ARP cached, heaps sized. *)
  ignore (exchange ~blocks:16);
  Trace.Prof.reset ();
  Trace.Prof.enable ();
  Fun.protect ~finally:Trace.quiesce (fun () ->
      let blocks = 64 in
      check_int "all bytes delivered" (blocks * 4096) (exchange ~blocks);
      (* Exclusive per-hop attribution moves between hops when promise
         continuation timing shifts (a woken sender allocates inside
         whichever region is open), so the gate is the aggregate of the
         stack hops per frame — stable, and a reintroduced defensive
         copy (wire frame, ring chunk, deferred-segment clone,
         reassembly) adds its full payload size to it. *)
      let stack_b, frames =
        List.fold_left
          (fun (b, n) (h : Trace.Prof.hop_stat) ->
            match h.Trace.Prof.h_hop with
            | Trace.Prof.App -> (b, n)
            | Trace.Prof.Ring_slot -> (b +. h.Trace.Prof.h_alloc_b, max n h.Trace.Prof.h_pkts)
            | _ -> (b +. h.Trace.Prof.h_alloc_b, n))
          (0., 1) (Trace.Prof.hop_stats ())
      in
      let per_frame = stack_b /. float_of_int frames in
      (* Steady state measures ~2750 B/frame (promise fabric, segment
         records, ACK assembly). A reintroduced frame-sized defensive
         copy adds >=1500 B/frame and trips this. *)
      let budget = 4096. in
      if per_frame > budget then
        Alcotest.failf "stack hops allocate %.0f B/frame (budget %.0f): a copy crept back in"
          per_frame budget)

(* Promise fabric per segment on the steady bulk path. Every vCPU charge
   on the packet path is a continuation ([Domain.charge_k]), and an ARP
   cache hit sends without a promise, so what a segment still costs in
   promises is the write/read API and the netif TX-response promise.
   Counted over both ends of an established flow with a warm ARP cache,
   harness binds included; the count is deterministic. *)
let test_tcp_promises_per_segment () =
  let w, a, b = pair_world ~plat_b:Platform.xen_extent () in
  let mss = 1448 in
  let payload = bs (pattern mss) in
  let bytes_rx = ref 0 and target = ref max_int and reached = ref None in
  N.Tcp.listen (N.Stack.tcp b.stack) ~port:5003 (fun flow ->
      let rec drain () =
        N.Tcp.read flow >>= function
        | None -> P.return ()
        | Some c ->
          bytes_rx := !bytes_rx + Bytestruct.length c;
          (match !reached with
          | Some u when !bytes_rx >= !target ->
            reached := None;
            P.wakeup u ()
          | _ -> ());
          drain ()
      in
      drain ());
  let flow =
    run w (N.Tcp.connect (N.Stack.tcp a.stack) ~dst:(N.Stack.address b.stack) ~dst_port:5003)
  in
  let burst n =
    let all_in, u = P.wait () in
    target := !bytes_rx + (n * mss);
    reached := Some u;
    let rec send k =
      if k = 0 then all_in else N.Tcp.write flow payload >>= fun () -> send (k - 1)
    in
    run w (send n)
  in
  (* Warm-up: ARP cached, window open, pools grown. *)
  burst 16;
  let segments () =
    N.Tcp.segments_sent (N.Stack.tcp a.stack) + N.Tcp.segments_sent (N.Stack.tcp b.stack)
  in
  let s0 = segments () in
  P.reset_counters ();
  let writes = 64 in
  burst writes;
  let promises = P.created_count () and segs = segments () - s0 in
  check_bool "every write became a data segment" true (segs >= writes);
  (* Measured 449 promises over 128 segments (64 data, 64 ACKs): 3.51
     per segment. Charging through promises, with the ARP bind, read
     8.51. *)
  let per_seg = float_of_int promises /. float_of_int segs and pinned = 3.51 in
  if per_seg > pinned then
    Alcotest.failf "%d promises over %d segments (%.2f per segment, pinned at most %.2f)" promises
      segs per_seg pinned

let prop_tcp_delivers_under_random_loss =
  qtest ~count:12 "tcp delivers intact data under random loss/seed"
    QCheck.(pair (int_bound 1000) (int_bound 12))
    (fun (seed, loss_pct) ->
      let w = create ~seed:(seed + 1) () in
      let a = host w ~platform:Platform.xen_extent ~name:"a" ~ip:"10.0.0.1" () in
      let b = host w ~platform:Platform.linux_pv ~name:"b" ~ip:"10.0.0.2" () in
      let loss = float_of_int loss_pct /. 100.0 in
      Netsim.Bridge.set_loss w.bridge a.nic loss;
      Netsim.Bridge.set_loss w.bridge b.nic loss;
      let received, data, _ = transfer w a b ~bytes:40_000 ~chunk:3000 in
      received = data)

let () =
  Alcotest.run "netstack"
    [
      ( "addresses",
        [
          Alcotest.test_case "ipaddr" `Quick test_ipaddr;
          Alcotest.test_case "ipaddr unsigned order and int32 round trip" `Quick
            test_ipaddr_unsigned;
          Alcotest.test_case "macaddr" `Quick test_macaddr;
        ] );
      ( "checksum",
        [
          Alcotest.test_case "known value" `Quick test_checksum_rfc_example;
          Alcotest.test_case "odd length" `Quick test_checksum_odd_length;
          Alcotest.test_case "scatter equals contiguous" `Quick test_checksum_scatter_equals_contiguous;
          Alcotest.test_case "verifies to zero" `Quick test_checksum_verifies_to_zero;
          prop_checksum_detects_single_bit_flips;
          prop_checksum_matches_reference;
          Alcotest.test_case "allocation-free" `Quick test_checksum_allocation_free;
        ] );
      ( "arp",
        [
          Alcotest.test_case "resolve and cache" `Quick test_arp_resolve_and_cache;
          Alcotest.test_case "resolution failure" `Quick test_arp_resolution_failure;
          Alcotest.test_case "gratuitous announce" `Quick test_arp_gratuitous_announce;
        ] );
      ( "icmp",
        [
          Alcotest.test_case "ping" `Quick test_ping;
          Alcotest.test_case "flood ping survives" `Quick test_ping_flood_survives;
          Alcotest.test_case "mirage vs linux latency" `Quick test_mirage_ping_latency_vs_linux;
        ] );
      ( "udp",
        [
          Alcotest.test_case "roundtrip" `Quick test_udp_roundtrip;
          Alcotest.test_case "no listener counted" `Quick test_udp_no_listener_counted;
          Alcotest.test_case "unlisten" `Quick test_udp_unlisten;
        ] );
      ( "dhcp",
        [
          Alcotest.test_case "lease acquisition" `Quick test_dhcp_lease;
          Alcotest.test_case "pool exhaustion" `Quick test_dhcp_pool_exhaustion;
        ] );
      ( "tcp_wire",
        [
          Alcotest.test_case "sequence arithmetic" `Quick test_seq_arithmetic;
          prop_tcp_wire_roundtrip;
          Alcotest.test_case "checksum rejected" `Quick test_tcp_wire_checksum_rejected;
        ] );
      ( "tcp",
        [
          Alcotest.test_case "handshake and transfer" `Quick test_tcp_handshake_and_transfer;
          Alcotest.test_case "bidirectional echo" `Quick test_tcp_bidirectional;
          Alcotest.test_case "connection refused" `Quick test_tcp_connection_refused;
          Alcotest.test_case "survives 5% loss" `Quick test_tcp_survives_loss;
          Alcotest.test_case "fast retransmit used" `Quick test_tcp_fast_retransmit_used;
          Alcotest.test_case "heavy loss uses RTO" `Quick test_tcp_heavy_loss_rto;
          Alcotest.test_case "flow control backpressure" `Quick test_tcp_flow_control_backpressure;
          Alcotest.test_case "concurrent flows" `Quick test_tcp_concurrent_flows;
          Alcotest.test_case "listener accepts many" `Quick test_tcp_listener_accepts_many;
          Alcotest.test_case "abort resets" `Quick test_tcp_abort_resets_peer;
          Alcotest.test_case "mss respected" `Quick test_tcp_mss_respected;
          Alcotest.test_case "cwnd grows" `Quick test_tcp_cwnd_grows;
          Alcotest.test_case "server-initiated close" `Quick test_tcp_server_initiated_close;
          Alcotest.test_case "write after close fails" `Quick test_tcp_write_after_close_fails;
          Alcotest.test_case "unlisten refuses" `Quick test_tcp_unlisten_refuses;
          Alcotest.test_case "half-close keeps receiving" `Quick
            test_tcp_half_close_peer_can_still_send;
          Alcotest.test_case "fast retransmit after 3 dupacks" `Quick
            test_tcp_fast_retransmit_three_dupacks;
          Alcotest.test_case "rto backoff and slow start" `Quick
            test_tcp_rto_backoff_and_slow_start;
          Alcotest.test_case "zero window persist probe" `Quick
            test_tcp_zero_window_persist_probe;
          Alcotest.test_case "ooo cap eviction" `Quick test_tcp_ooo_cap_eviction;
          prop_tcp_delivers_under_random_loss;
          Alcotest.test_case "discarded flows release pool refs" `Quick
            test_tcp_discarded_flows_release_pool_refs;
          Alcotest.test_case "unread data survives flow removal" `Quick
            test_tcp_unread_data_survives_flow_removal;
          Alcotest.test_case "TIME_WAIT holds no pool page" `Quick
            test_tcp_time_wait_holds_no_pool_refs;
          Alcotest.test_case "clean transfer leaves no timer" `Quick
            test_tcp_clean_transfer_leaves_no_timer;
          Alcotest.test_case "vanished peer leaves no timer" `Quick
            test_tcp_vanished_peer_leaves_no_timer;
          Alcotest.test_case "TIME_WAIT churn leaves after exactly 2 MSL" `Quick
            test_tcp_time_wait_churn;
        ] );
      ( "dpath",
        [
          Alcotest.test_case "promises per segment on a warm flow" `Quick
            test_tcp_promises_per_segment;
          Alcotest.test_case "steady-state alloc budget" `Quick
            test_dpath_steady_state_alloc_budget;
        ] );
    ]
