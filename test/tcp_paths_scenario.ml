(* The pinned TCP-paths scenario behind test/golden/tcp_paths.pcap: seed
   11, two PV guests, and scripted drops ([Netsim.Faults.drop_when]) that
   steer five connections, one after another, through the TCP paths that
   neither a lossless run nor a randomly lossy one is sure to reach:
   - port 7001: the client's first SYN and the server's first SYN-ACK
     are dropped, so each is retransmitted once. The client then leaves
     131 372 bytes unread for 3 s, so the server probes the zero window
     with one-byte segments. The second probe is dropped and resent.
   - port 7002: exactly one receive window (131 072 bytes), then a FIN,
     into a reader that stalls for 60 s. The window closes with all data
     acknowledged, so the FIN goes out as a zero-window probe. The reader
     then closes from CLOSE_WAIT, so the client goes LAST_ACK -> gone.
   - port 7003 has no listener: the server answers the SYN with a RST.
   - port 7004: every SYN is dropped, and connect gives up with
     [Timeout] after the last SYN retry.
   - port 7005: the client's link goes dark right after the handshake.
     The server gives up on its unacknowledged data with [Timeout]. The
     client's next segment then finds no flow and draws a RST.
   The capture keeps the first 96 bytes of each frame: every header and
   option, and no bulk payload. [run] fails if any of these paths is
   missed, so a change cannot keep the pin by no longer reaching one.
   Like Capture_scenario it runs traced from a reset tracer, so flow ids
   are reproducible; regenerate with `dune runtest` + `dune promote`. *)

module P = Mthread.Promise
module N = Netstack

let ( >>= ) = P.bind

(* (source port, destination port, flags byte, payload length) of an
   Ethernet frame carrying TCP over IPv4. *)
let tcp_header frame =
  if Bytestruct.length frame < 54 || Bytestruct.BE.get_uint16 frame 12 <> 0x0800
     || Bytestruct.get_uint8 frame 23 <> 6
  then None
  else begin
    let ihl = (Bytestruct.get_uint8 frame 14 land 0xf) * 4 in
    let tcp = 14 + ihl in
    let data_off = (Bytestruct.get_uint8 frame (tcp + 12) lsr 4) * 4 in
    Some
      ( Bytestruct.BE.get_uint16 frame tcp,
        Bytestruct.BE.get_uint16 frame (tcp + 2),
        Bytestruct.get_uint8 frame (tcp + 13),
        Bytestruct.BE.get_uint16 frame 16 - ihl - data_off )
  end

let syn = 0x02
let syn_ack = 0x12

(* [nth_match n p] holds for the [n]th frame satisfying [p] only. *)
let nth_match n p =
  let seen = ref 0 in
  fun frame ->
    p frame
    && begin
         incr seen;
         !seen = n
       end

let scripted_drops drops =
  Netsim.Faults.make
    ~drop_when:(fun ~now_ns:_ ~nth:_ frame ->
      match tcp_header frame with
      | None -> false
      | Some h -> List.exists (fun p -> p h) drops)
    ()

let steer w cap =
  let sim = w.Core.World.sim and bridge = w.Core.World.bridge in
  let s = Core.World.host w ~name:"server" ~ip:"10.0.0.2" () in
  let c = Core.World.host w ~name:"client" ~ip:"10.0.0.9" () in
  let stcp = N.Stack.tcp s.Core.World.stack and ctcp = N.Stack.tcp c.Core.World.stack in
  let light = ref false in
  let to_7005 = ref 0 in
  Netsim.Bridge.set_faults bridge c.Core.World.nic
    (scripted_drops
       [
         nth_match 1 (fun (_, dport, flags, _) -> dport = 7001 && flags = syn);
         (fun (_, dport, _, _) -> dport = 7004);
         (fun (_, dport, _, _) ->
           dport = 7005
           && begin
                incr to_7005;
                (* the SYN and the handshake ACK pass *)
                !to_7005 > 2 && not !light
              end);
       ]);
  Netsim.Bridge.set_faults bridge s.Core.World.nic
    (scripted_drops
       [
         nth_match 1 (fun (sport, _, flags, _) -> sport = 7001 && flags = syn_ack);
         nth_match 2 (fun (sport, _, _, len) -> sport = 7001 && len = 1);
       ]);
  let serve port bytes =
    N.Tcp.listen stcp ~port (fun fl ->
        N.Tcp.write fl (Bytestruct.of_string (String.make bytes 'p')) >>= fun () -> N.Tcp.close fl)
  in
  serve 7001 (131072 + 300);
  serve 7002 131072;
  N.Tcp.listen stcp ~port:7005 (fun fl ->
      N.Tcp.write fl (Bytestruct.of_string (String.make 2000 'q')) >>= fun () ->
      N.Tcp.read fl >>= fun _ -> P.return ());
  let dst = N.Stack.address s.Core.World.stack in
  let reached = ref [] in
  let check what ok = reached := (what, ok) :: !reached in
  let server_state port =
    List.find_map
      (fun si ->
        if si.N.Tcp.si_local_port = port && si.N.Tcp.si_peer <> None then Some si.N.Tcp.si_state
        else None)
      (N.Tcp.sockets stcp)
  in
  let rec drain fl n =
    N.Tcp.read fl >>= function None -> P.return n | Some b -> drain fl (n + Bytestruct.length b)
  in
  let outcome port =
    P.catch
      (fun () -> N.Tcp.connect ctcp ~dst ~dst_port:port >>= fun _ -> P.return "connected")
      (function
        | N.Tcp.Connection_refused -> P.return "refused"
        | P.Timeout -> P.return "timeout"
        | e -> P.fail e)
  in
  (* Leave the stream unread for [stall], then read it to the end and
     close from CLOSE_WAIT. *)
  let slow_reader port ~stall =
    N.Tcp.connect ctcp ~dst ~dst_port:port >>= fun fl ->
    P.sleep sim stall >>= fun () ->
    if port = 7002 then
      check "FIN sent as a zero-window probe" (server_state 7002 = Some "FIN_WAIT_2");
    drain fl 0 >>= fun _ ->
    P.sleep sim (Engine.Sim.ms 1) >>= fun () -> N.Tcp.close fl
  in
  P.run sim
    ( slow_reader 7001 ~stall:(Engine.Sim.sec 3) >>= fun () ->
      slow_reader 7002 ~stall:(Engine.Sim.sec 60) >>= fun () ->
      outcome 7003 >>= fun r ->
      check "RST to a closed port" (r = "refused");
      outcome 7004 >>= fun r ->
      check "SYN give-up" (r = "timeout");
      N.Tcp.connect ctcp ~dst ~dst_port:7005 >>= fun fl ->
      P.sleep sim (Engine.Sim.sec 600) >>= fun () ->
      check "data give-up" (server_state 7005 = None);
      light := true;
      N.Tcp.write fl (Bytestruct.of_string "x") >>= fun () ->
      drain fl 0 >>= fun _ ->
      check "RST to a segment of no flow" (N.Tcp.state_name fl = "CLOSED");
      P.return () );
  (* Frames put on the wire (dropped ones included: the tap precedes the
     fault layer) whose summary starts with [prefix] and ends with
     [flags], of on-wire length [len] when given. *)
  let sent ?len ~prefix flags =
    let ends = " flags=" ^ flags in
    List.length
      (List.filter
         (fun r ->
           let s = r.Netsim.Capture.r_summary in
           let n = String.length s and p = String.length prefix and e = String.length ends in
           r.Netsim.Capture.r_dir = Netsim.Tx
           && (match len with Some l -> r.Netsim.Capture.r_len = l | None -> true)
           && n >= p + e
           && String.sub s 0 p = prefix
           && String.sub s (n - e) e = ends)
         (Netsim.Capture.records cap))
  in
  check "SYN retransmitted" (sent ~prefix:"tcp 10.0.0.9:32768 >" "S" = 2);
  check "SYN-ACK retransmitted" (sent ~prefix:"tcp 10.0.0.2:7001 >" "SA" = 2);
  check "one-byte probe resent" (sent ~len:55 ~prefix:"tcp 10.0.0.2:7001 >" "AP" >= 3);
  check "nothing evicted" (Netsim.Capture.evicted cap = 0);
  List.iter
    (fun (what, ok) -> if not ok then failwith ("Tcp_paths_scenario: not reached: " ^ what))
    (List.rev !reached)

let run () = Scenario.traced_capture ~name:"tcp_paths" ~capacity:4096 ~snaplen:96 ~filter:"tcp" steer
