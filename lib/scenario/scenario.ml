(* The workloads that tests, benchmarks and CLIs each run in several
   places, defined once: a bulk TCP transfer under a fault schedule (the
   chaos matrix), a loop of HTTP GETs, the web-plus-UDP-echo world of
   `mirage_sim pcap` and `ss`, and the traced bracket around a pinned
   capture. Each parameter is one that two callers set differently. *)

module P = Mthread.Promise
module N = Netstack
module F = Netsim.Faults

let ( >>= ) = P.bind

(* Deterministic pseudo-random payload. *)
let pattern n = String.init n (fun i -> Char.chr ((i * 131 + i / 251) land 0xff))

(* ---- bulk transfer under faults ---- *)

(* The chaos matrix's fault schedules. Each builds its faults relative
   to [now]: link flaps are anchored in absolute sim time. *)
let chaos_schedules : (string * (now:int -> F.t)) list =
  let ms = Engine.Sim.ms in
  [
    ("burst-loss-2pct", fun ~now:_ -> F.make ~ge:(F.burst_loss ~avg_loss:0.02 ~burst_len:5) ());
    ("reorder-15pct", fun ~now:_ -> F.make ~reorder:(0.15, 300_000) ());
    ("duplicate-5pct", fun ~now:_ -> F.make ~duplicate:0.05 ());
    ("corrupt-3pct", fun ~now:_ -> F.make ~corrupt:0.03 ());
    ("jitter-200us", fun ~now:_ -> F.make ~jitter_ns:200_000 ());
    (* The first outage must land inside the transfer (~2 ms clean),
       hence the early anchor. *)
    ("link-flap", fun ~now -> F.make ~flap:(now + 500_000, ms 40, ms 200) ());
    ( "everything",
      fun ~now ->
        F.make
          ~ge:(F.burst_loss ~avg_loss:0.01 ~burst_len:4)
          ~reorder:(0.05, 200_000) ~duplicate:0.02 ~corrupt:0.01 ~jitter_ns:100_000
          ~flap:(now + ms 20, ms 20, ms 400) () );
  ]

(* Frames the fault layer dropped, corrupted, duplicated or reordered. *)
let faults_injected (f : Netsim.fault_counts) =
  f.fc_burst_dropped + f.fc_flap_dropped + f.fc_script_dropped + f.fc_corrupted
  + f.fc_duplicated + f.fc_reordered

(* How a bulk transfer ended. [eof_ns] is when the server read EOF,
   counted from the moment the faults went in; [None] means it had not
   by the deadline, and the two state names say where each end stuck.
   The TCP counters are the sender's. *)
type bulk = {
  intact : bool;
  received : int;
  eof_ns : int option;
  client_state : string;
  server_state : string;
  segments_sent : int;
  retransmits : int;
  fast_retransmits : int;
  rtos : int;
  persists : int;
  faults : Netsim.fault_counts;
}

(* [bytes] of [pattern] from a Xen guest (10.0.0.1) to a Linux PV guest
   (10.0.0.2) in [chunk]-byte writes, then a close. The handshake runs
   on a clean link; [schedule] is installed on both links once it is
   done. With [stall_ns] the server reads nothing until that long after
   the faults went in. The run stops [deadline_ns] after that. *)
let bulk_transfer ?stall_ns ~seed ~schedule ~bytes ~chunk ~deadline_ns () =
  let w = Core.World.create ~seed () in
  let a = Core.World.host w ~platform:Platform.xen_extent ~name:"a" ~ip:"10.0.0.1" () in
  let b = Core.World.host w ~platform:Platform.linux_pv ~name:"b" ~ip:"10.0.0.2" () in
  let received = Buffer.create bytes in
  let eof = ref None and server_flow = ref None in
  let reading, start_reading = P.wait () in
  N.Tcp.listen (N.Stack.tcp b.stack) ~port:5001 (fun flow ->
      server_flow := Some flow;
      let rec drain () =
        N.Tcp.read flow >>= function
        | None ->
          eof := Some (Engine.Sim.now w.sim);
          P.return ()
        | Some c ->
          Buffer.add_string received (Bytestruct.to_string c);
          drain ()
      in
      if stall_ns = None then drain () else reading >>= drain);
  let data = pattern bytes in
  let flow =
    Core.World.run w
      (N.Tcp.connect (N.Stack.tcp a.stack) ~dst:(N.Stack.address b.stack) ~dst_port:5001)
  in
  let start = Engine.Sim.now w.sim in
  Netsim.Bridge.set_faults w.bridge a.nic (schedule ~now:start);
  Netsim.Bridge.set_faults w.bridge b.nic (schedule ~now:start);
  P.async (fun () ->
      let rec send off =
        if off >= bytes then N.Tcp.close flow
        else
          N.Tcp.write flow (Bytestruct.of_string (String.sub data off (min chunk (bytes - off))))
          >>= fun () -> send (off + chunk)
      in
      send 0);
  Option.iter
    (fun ns ->
      ignore (Core.World.run w (P.sleep w.sim ns));
      P.wakeup start_reading ())
    stall_ns;
  Engine.Sim.run w.sim ~until:(Engine.Sim.now w.sim + deadline_ns);
  let tcp = N.Stack.tcp a.stack in
  {
    intact = Buffer.contents received = data;
    received = Buffer.length received;
    eof_ns = Option.map (fun t -> t - start) !eof;
    client_state = N.Tcp.state_name flow;
    server_state = (match !server_flow with Some f -> N.Tcp.state_name f | None -> "-");
    segments_sent = N.Tcp.segments_sent tcp;
    retransmits = N.Tcp.retransmissions tcp;
    fast_retransmits = N.Tcp.fast_retransmits tcp;
    rtos = N.Tcp.rto_fires tcp;
    persists = N.Tcp.persist_probes tcp;
    faults = Netsim.Bridge.fault_counts w.bridge;
  }

(* ---- HTTP GET load ---- *)

(* GETs of "/" on port 80 of [dst], one after another, each bounded by
   [timeout_ns] and followed by [gap_ns] of think time. A failed or timed
   out request is dropped, after [backoff_ns] when given. The loop ends
   after [count] requests or once [stop] is set, and otherwise never. *)
let http_load sim tcp ~dst ~timeout_ns ~gap_ns ?backoff_ns ?count ?(stop = ref false) () =
  let rec go n =
    if Some n = count || !stop then P.return ()
    else
      P.catch
        (fun () ->
          P.with_timeout sim timeout_ns (fun () ->
              Core.Apps.Net.Http_client.get_once tcp ~dst ~port:80 "/")
          >>= fun _ -> P.return ())
        (fun _ -> match backoff_ns with Some ns -> P.sleep sim ns | None -> P.return ())
      >>= fun () ->
      P.sleep sim gap_ns >>= fun () -> go (n + 1)
  in
  go 0

(* ---- a web appliance with a UDP echo, and its client ---- *)

(* A web-server appliance at 10.0.0.10 (HTTP on :80 serving a
   [page_bytes] page, a UDP echo on :53, alive for twice [duration_ns])
   and a client host at 10.0.0.9 that GETs "/" every [http_gap_ns] and
   sends the datagram [query n] to :53 every [query_gap_ns]. The
   server's vif gets [vif_capture] and its link [loss] before the client
   exists, so both see the client's first frames. *)
let web_and_echo (w : Core.World.t) ?vif_capture ~aslr_seed ~page_bytes ~loss ~duration_ns
    ~http_gap_ns ~query ~query_gap_ns () =
  let sim = w.sim in
  let router = Uhttp.Router.create () in
  Uhttp.Router.add router Uhttp.Http_wire.GET "/" (fun _ _ ->
      P.return (Uhttp.Http_wire.response ~status:200 (String.make page_bytes 'x')));
  let server =
    Core.World.appliance w ~config:(Core.Appliance.web_server ~aslr_seed ()) ~ip:"10.0.0.10"
      ~main:(fun h ->
        let stack = Core.Appliance.Handle.stack h in
        ignore
          (Core.Apps.Net.Http.of_router sim
             ~dom:(Core.Appliance.Handle.domain h)
             ~tcp:(N.Stack.tcp stack) ~port:80 router);
        let udp = N.Stack.udp stack in
        N.Udp.listen udp ~port:53 (fun ~src ~src_port ~dst_port:_ ~payload ->
            P.async (fun () -> N.Udp.sendto udp ~src_port:53 ~dst:src ~dst_port:src_port payload));
        P.sleep sim (duration_ns * 2) >>= fun () -> P.return 0)
      ()
  in
  let netif = Core.Appliance.Handle.netif server in
  Option.iter (fun c -> Capture.attach_vif c netif) vif_capture;
  if loss > 0.0 then Netsim.Bridge.set_loss w.bridge (Devices.Netif.nic netif) loss;
  let client = (Core.World.host w ~account_cpu:false ~name:"client" ~ip:"10.0.0.9" ()).stack in
  let dst = Core.Appliance.Handle.address server in
  P.async (fun () ->
      http_load sim (N.Stack.tcp client) ~dst ~timeout_ns:(Engine.Sim.ms 500) ~gap_ns:http_gap_ns ());
  let udp = N.Stack.udp client in
  N.Udp.listen udp ~port:5353 (fun ~src:_ ~src_port:_ ~dst_port:_ ~payload:_ -> ());
  let rec udp_drive n =
    N.Udp.sendto udp ~src_port:5353 ~dst ~dst_port:53 (Bytestruct.of_string (query n))
    >>= fun () ->
    P.sleep sim query_gap_ns >>= fun () -> udp_drive (n + 1)
  in
  P.async (fun () -> udp_drive 0);
  (server, client)

(* ---- the traced capture bracket ---- *)

(* Runs [body] on a seed-11 world whose bridge carries a capture named
   [name] (ring of [capacity], [snaplen], pcap-style [filter]), traced
   from a reset tracer so Trace.Flow ids are reproducible, and returns
   the capture as (pcap bytes, flows sidecar). *)
let traced_capture ~name ~capacity ?snaplen ~filter body =
  Trace.quiesce ();
  Trace.enable ~capacity:65536 ();
  let w = Core.World.create ~seed:11 () in
  let filter = match Capture.parse_filter filter with Ok f -> f | Error e -> failwith e in
  let cap = Capture.create ~name ~capacity ?snaplen ~filter () in
  Capture.attach_bridge cap w.bridge;
  body w cap;
  let pcap = Capture.to_pcap cap in
  let flows = Capture.flows_json cap in
  Trace.quiesce ();
  (pcap, flows)
