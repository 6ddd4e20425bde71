(* Figure 8: iperf-style TCP throughput with all hardware offload disabled,
   1 and 10 flows, between Linux and Mirage guests. The wire is 10 Gb/s so
   per-segment CPU costs (the quantity the paper isolates) set the ceiling. *)

module P = Mthread.Promise

let duration_ns = Engine.Sim.ms 400

let transfer_throughput ~sender_platform ~receiver_platform ~flows =
  let w = Util.make_world () in
  let fast = 10_000_000_000 in
  let snd =
    Util.host w ~platform:sender_platform ~bandwidth_bps:fast ~latency_ns:20_000
      ~name:"sender" ~ip:"10.0.0.1" ()
  in
  let rcv =
    Util.host w ~platform:receiver_platform ~bandwidth_bps:fast ~latency_ns:20_000
      ~name:"receiver" ~ip:"10.0.0.2" ()
  in
  let received = ref 0 in
  Netstack.Tcp.listen (Netstack.Stack.tcp rcv.Util.stack) ~port:5001 (fun flow ->
      let rec drain () =
        P.bind (Netstack.Tcp.read flow) (function
          | None -> P.return ()
          | Some c ->
            received := !received + Bytestruct.length c;
            drain ())
      in
      drain ());
  let stop_at = Engine.Sim.now w.Util.sim + duration_ns in
  let chunk = Util.bs (String.make 65536 'x') in
  let one_flow () =
    P.bind
      (Netstack.Tcp.connect (Netstack.Stack.tcp snd.Util.stack)
         ~dst:(Netstack.Stack.address rcv.Util.stack) ~dst_port:5001)
      (fun flow ->
        let rec pump () =
          if Engine.Sim.now w.Util.sim >= stop_at then Netstack.Tcp.close flow
          else P.bind (Netstack.Tcp.write flow chunk) pump
        in
        pump ())
  in
  let t0 = Engine.Sim.now w.Util.sim in
  List.iter (fun _ -> P.async one_flow) (List.init flows (fun i -> i));
  (* Sample goodput at the cutoff; the retransmission tail after the last
     chunk is not part of the measurement window (as iperf reports). *)
  Util.run w (P.sleep w.Util.sim duration_ns);
  let elapsed = Engine.Sim.now w.Util.sim - t0 in
  float_of_int !received *. 8.0 /. Engine.Sim.to_sec elapsed /. 1e6

let configs =
  [
    ("Linux to Linux", Platform.linux_pv, Platform.linux_pv);
    ("Linux to Mirage", Platform.linux_pv, Platform.xen_extent);
    ("Mirage to Linux", Platform.xen_extent, Platform.linux_pv);
  ]

let run () =
  Util.header "Figure 8 (table): TCP throughput, offload disabled (Mbps)";
  Printf.printf "  %-18s %-12s %-12s   (paper: 1590/1534, 1742/1710, 975/952)\n" "configuration"
    "1 flow" "10 flows";
  List.iter
    (fun (name, s, r) ->
      let one = transfer_throughput ~sender_platform:s ~receiver_platform:r ~flows:1 in
      let ten = transfer_throughput ~sender_platform:s ~receiver_platform:r ~flows:10 in
      Util.emit ~figure:"fig8" ~metric:(Printf.sprintf "throughput/%s/1-flow" name) ~unit_:"Mbps" one;
      Util.emit ~figure:"fig8" ~metric:(Printf.sprintf "throughput/%s/10-flows" name) ~unit_:"Mbps" ten;
      Printf.printf "  %-18s %-12.0f %-12.0f\n" name one ten)
    configs;
  (* 4.1.3 flood-ping latency companion *)
  Util.header "Section 4.1.3: ICMP flood-ping latency";
  let rtt platform =
    let w = Util.make_world () in
    let client =
      Util.host w ~platform:Platform.linux_native ~account_cpu:false ~latency_ns:5_000
        ~name:"pinger" ~ip:"10.0.0.9" ()
    in
    let target = Util.host w ~platform ~latency_ns:5_000 ~name:"target" ~ip:"10.0.0.10" () in
    let icmp = Netstack.Stack.icmp client.Util.stack in
    let dst = Netstack.Stack.address target.Util.stack in
    let n = 2000 in
    let rec go i acc =
      if i = 0 then P.return acc
      else P.bind (Netstack.Icmp4.ping icmp ~dst ~seq:i) (fun rtt -> go (i - 1) (acc + rtt))
    in
    float_of_int (Util.run w (go n 0)) /. float_of_int n
  in
  let linux = rtt Platform.linux_pv in
  let mirage = rtt Platform.xen_extent in
  Util.emit ~figure:"fig8" ~metric:"flood-ping/Linux guest" ~unit_:"us" (linux /. 1e3);
  Util.emit ~figure:"fig8" ~metric:"flood-ping/Mirage guest" ~unit_:"us" (mirage /. 1e3);
  Printf.printf "  Linux guest : %.1f us\n  Mirage guest: %.1f us  (+%.1f%%; paper: 4-10%%)\n"
    (linux /. 1e3) (mirage /. 1e3)
    (100.0 *. (mirage -. linux) /. linux)
