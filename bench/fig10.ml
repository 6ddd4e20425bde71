(* Figure 10: authoritative DNS throughput vs. zone size, queryperf-style
   closed-loop load against each server engine on its native platform. *)

module P = Mthread.Promise

let concurrency = 32
let duration_ns = Engine.Sim.ms 250

(* queryperf replays its query file repeatedly, so caches are warm when
   the measurement window starts. *)
let warmup_ns = Engine.Sim.ms 400

(* Closed-loop load generator speaking raw DNS over UDP; the client host
   is CPU-unaccounted (the paper's load generator is not the bottleneck). *)
let measure ~engine ~platform ~entries =
  let w = Util.make_world () in
  let server = Util.host w ~platform ~name:"dns" ~ip:"10.0.0.53" () in
  let client =
    Util.host w ~platform:Platform.linux_native ~account_cpu:false ~name:"queryperf"
      ~ip:"10.0.0.9" ()
  in
  let zone = Dns.Zone.synthesize ~origin:"bench.zone" ~entries in
  let db = Dns.Db.of_zone zone in
  let srv =
    Core.Apps.Net.Dns.create w.Util.sim ~dom:server.Util.dom
      ~udp:(Netstack.Stack.udp server.Util.stack) ~db ~engine ()
  in
  ignore srv;
  let udp = Netstack.Stack.udp client.Util.stack in
  let server_ip = Netstack.Stack.address server.Util.stack in
  let prng = Engine.Prng.create ~seed:5 () in
  let responses = ref 0 in
  let measure_from = Engine.Sim.now w.Util.sim + warmup_ns in
  let stop_at = measure_from + duration_ns in
  let next_id = ref 0 in
  (* one port per in-flight slot; the response restarts that slot *)
  let send_query port =
    incr next_id;
    let qname = Dns.Dns_name.of_string (Printf.sprintf "host-%d.bench.zone" (Engine.Prng.int prng entries)) in
    let msg = Dns.Dns_wire.query ~id:(!next_id land 0xffff) qname Dns.Dns_wire.A in
    P.async (fun () ->
        Netstack.Udp.sendto udp ~src_port:port ~dst:server_ip ~dst_port:53
          (Dns.Dns_wire.encode msg))
  in
  let finished, finish_u = P.wait () in
  let live = ref concurrency in
  let measured_start = ref 0 in
  for slot = 0 to concurrency - 1 do
    let port = 20000 + slot in
    Netstack.Udp.listen udp ~port (fun ~src:_ ~src_port:_ ~dst_port:_ ~payload:_ ->
        incr responses;
        if Engine.Sim.now w.Util.sim < stop_at then send_query port
        else begin
          decr live;
          if !live = 0 && P.wakener_pending finish_u then P.wakeup finish_u ()
        end);
    send_query port
  done;
  P.async (fun () ->
      P.bind (P.sleep w.Util.sim warmup_ns) (fun () ->
          measured_start := !responses;
          P.return ()));
  Util.run w finished;
  let elapsed = Engine.Sim.now w.Util.sim - measure_from in
  float_of_int (!responses - !measured_start) /. Engine.Sim.to_sec elapsed

let engines =
  [
    ("Bind9, Linux", Dns.Server.Bind_like, Platform.linux_pv);
    ("NSD, Linux", Dns.Server.Nsd_like, Platform.linux_pv);
    ("NSD, MiniOS -O", Dns.Server.Nsd_like, Platform.minios_o1);
    ("NSD, MiniOS -O3", Dns.Server.Nsd_like, Platform.minios_o3);
    ("Mirage (no memo)", Dns.Server.Mirage { memoize = false }, Platform.xen_extent);
    ("Mirage (memo)", Dns.Server.Mirage { memoize = true }, Platform.xen_extent);
  ]

let run () =
  Util.header "Figure 10: DNS throughput vs zone size (kqueries/s)";
  Printf.printf "  %-18s" "zone entries";
  List.iter (fun (n, _, _) -> Printf.printf " %-17s" n) engines;
  print_newline ();
  List.iter
    (fun entries ->
      Printf.printf "  %-18d" entries;
      List.iter
        (fun (label, engine, platform) ->
          let kqps = measure ~engine ~platform ~entries /. 1e3 in
          Util.emit ~figure:"fig10"
            ~metric:(Printf.sprintf "dns/%s/%d-entries" label entries)
            ~unit_:"kqueries/s" kqps;
          Printf.printf " %-17.1f" kqps)
        engines;
      print_newline ())
    [ 100; 300; 1000; 3000; 10000 ];
  Printf.printf
    "  (paper shape: Bind ~55k (worse on small zones), NSD ~70k, MiniOS ports far below,\n";
  Printf.printf
    "   Mirage ~40k unmemoised, 75-80k with the 20-line memoisation patch)\n"
