(* dns_udp: a closed loop keeping 32 queries in flight against the
   Mirage DNS appliance with response memoisation, serving a 100 000-name
   zone the benchmark synthesises from the seed. Names are drawn
   uniformly. Chosen because the packets are the smallest of any
   workload, so per-packet cost dominates; it runs over UDP and bypasses
   TCP entirely; and the zone is larger than the warm-up fills, so about
   half the measured queries miss the memo and the hit ratio matters.

   Each response must decode, carry the query's id, and answer with the
   zone's A record for the name asked. Latency is the query's RTT. *)

module P = Mthread.Promise
module Wire = Dns.Dns_wire

let entries = 100_000
let in_flight = 32
let origin = "bench.example"
let server_ip = "10.0.0.53"
let warmup_ns = Engine.Sim.ms 400
let measure_ns = Engine.Sim.ms 2500

(* A query unanswered this long at the end of the window was lost. *)
let lost_after_ns = Engine.Sim.ms 100

type slot = {
  port : int;
  mutable id : int;
  mutable name : int;
  mutable sent : int;
  mutable waiting : bool;
  mutable span : int;
}

(* Bind9 zone-file text with seeded A records, and those records. *)
let zone_text rng =
  let addrs =
    Array.init entries (fun _ ->
        Netstack.Ipaddr.v4 10 (Engine.Prng.int rng 256) (Engine.Prng.int rng 256)
          (1 + Engine.Prng.int rng 254))
  in
  let b = Buffer.create (entries * 24) in
  Printf.bprintf b "$TTL 3600\n$ORIGIN %s.\n" origin;
  Printf.bprintf b "@ IN SOA ns1 hostmaster 1 7200 1800 1209600 300\n@ IN NS ns1\nns1 IN A %s\n"
    server_ip;
  Array.iteri (fun i a -> Printf.bprintf b "h%d IN A %s\n" i (Netstack.Ipaddr.to_string a)) addrs;
  (Buffer.contents b, addrs)

let setup ~seed ~scale =
  let rng = Engine.Prng.create ~seed () in
  let w = World.create ~seed:(Engine.Prng.int rng 0x3fffffff) () in
  let text, addrs = zone_text rng in
  let db = Dns.Db.of_zone (Dns.Zone.parse ~origin text) in
  let names =
    Array.init entries (fun i -> Dns.Dns_name.of_string (Printf.sprintf "h%d.%s" i origin))
  in
  let server = ref None in
  let h, boot_ns =
    World.appliance w ~config:(Core.Appliance.dns_appliance ()) ~ip:server_ip ~main:(fun h ->
        let srv =
          Core.Apps.Net.Dns.create w.World.sim ~dom:(World.Handle.domain h)
            ~udp:(Netstack.Stack.udp (World.Handle.stack h))
            ~db ~engine:(Dns.Server.Mirage { memoize = true }) ()
        in
        server := Some srv;
        P.bind (World.Handle.stopped h) (fun () -> P.return 0))
  in
  let srv = Option.get !server in
  let memo = Option.get (Core.Apps.Net.Dns.memo srv) in
  let _, client =
    World.host w ~platform:Platform.linux_native ~account_cpu:false ~name:"queryperf" ~ip:"10.0.0.9"
      ()
  in
  let udp = Netstack.Stack.udp client in
  let dst = World.Handle.address h in
  let in_window = ref false in
  let attempted = ref 0 and failed = ref 0 and bytes = ref 0 and bad_decodes = ref 0 in
  let lat = Stats.Samples.create () in
  let queries = ref 0 in
  let send s =
    s.id <- Engine.Prng.int rng 0x10000;
    s.name <- Engine.Prng.int rng entries;
    s.sent <- World.now w;
    s.waiting <- true;
    s.span <- Spans.start ~req:!queries ~now:s.sent "query";
    incr queries;
    let msg = Wire.encode (Wire.query ~id:s.id names.(s.name) Wire.A) in
    P.async (fun () -> Netstack.Udp.sendto udp ~src_port:s.port ~dst ~dst_port:53 msg)
  in
  let correct s payload =
    match Wire.decode payload with
    | exception Wire.Decode_error _ ->
      incr bad_decodes;
      false
    | m -> (
      m.Wire.id = s.id
      && m.Wire.flags.Wire.qr
      && m.Wire.flags.Wire.rcode = Wire.No_error
      &&
      match m.Wire.answers with
      | [ { Wire.name; rdata = Wire.A_data a; _ } ] ->
        Dns.Dns_name.equal name names.(s.name) && Netstack.Ipaddr.equal a addrs.(s.name)
      | _ -> false)
  in
  let slots =
    Array.init in_flight (fun i ->
        { port = 20000 + i; id = 0; name = 0; sent = 0; waiting = false; span = -1 })
  in
  Array.iter
    (fun s ->
      Netstack.Udp.listen udp ~port:s.port (fun ~src:_ ~src_port:_ ~dst_port:_ ~payload ->
          let now = World.now w in
          let expected = s.waiting in
          s.waiting <- false;
          Spans.finish s.span ~now;
          let ok = expected && correct s payload in
          if !in_window then begin
            incr attempted;
            if ok then begin
              bytes := !bytes + Bytestruct.length payload;
              Stats.Samples.add lat (now - s.sent)
            end
            else incr failed
          end;
          (* a stray or wrong answer still frees the slot *)
          send s);
      send s)
    slots;
  let d = World.new_drive () in
  World.run_until w d (World.now w + Workload.scaled scale warmup_ns);
  let measure d =
    let t0 = World.now w in
    let hits0 = Dns.Memo.hits memo and misses0 = Dns.Memo.misses memo in
    let decode0 = Core.Apps.Net.Dns.decode_failures srv + !bad_decodes in
    in_window := true;
    World.run_until w d (t0 + Workload.scaled scale measure_ns);
    in_window := false;
    let t1 = World.now w in
    Array.iter
      (fun s ->
        if s.waiting && t1 - s.sent > lost_after_ns then begin
          incr attempted;
          incr failed
        end)
      slots;
    let hits = Dns.Memo.hits memo - hits0 and misses = Dns.Memo.misses memo - misses0 in
    {
      Workload.attempted = !attempted;
      failed = !failed;
      bytes = !bytes;
      window_ns = t1 - t0;
      latencies = lat;
      layer =
        [
          ("dns.memo_hit_ratio", float_of_int hits /. float_of_int (max 1 (hits + misses)));
          ( "dns.decode_failures",
            float_of_int (Core.Apps.Net.Dns.decode_failures srv + !bad_decodes - decode0) );
          ("core.boot_p50_ms", Engine.Sim.to_ms boot_ns);
          ("core.boot_p99_ms", Engine.Sim.to_ms boot_ns);
        ];
    }
  in
  { Workload.world = w; server = World.Handle.domain h; measure }

let workload =
  {
    Workload.name = "dns_udp";
    setup;
  }
