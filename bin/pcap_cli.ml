(* mirage_sim pcap: wire-level packet capture on a live scenario.

   Boots a web-server appliance (HTTP on :80, a UDP echo on :53), a
   client that drives both, and a capture session — bridge-wide by
   default, or at the server's vif with [--vif] (exercising the
   device-layer capture points). The filter language is pcap-ish:
   "tcp and port 80 and flag syn". At the end of the virtual-time run
   it prints the ring as a tcpdump-style table (with the Trace.Flow id
   each frame carried, cross-referencing `mirage_sim trace waterfall`)
   and, with [--out], writes a real libpcap file plus the .flows JSONL
   sidecar. [--loss] injects uniform loss on the server link so the
   retransmit storm is visible in the capture. *)

open Cmdliner
module P = Mthread.Promise

let ( >>= ) = P.bind

let dir_str = function Netsim.Tx -> "tx" | Netsim.Rx -> "rx"

let run_pcap seed duration_ms filter_str capacity snaplen at_vif loss out =
  let filter =
    match Netsim.Capture.parse_filter filter_str with
    | Ok f -> f
    | Error e ->
      Printf.eprintf "pcap: bad filter %S: %s\n" filter_str e;
      exit 2
  in
  let out = Engine.Trace_report.open_output out in
  let flows_out = Engine.Trace_report.open_output (Option.map (fun (f, _) -> f ^ ".flows") out) in
  Trace.enable ();
  let w = Core.World.create ~seed () in
  let sim = w.Core.World.sim and bridge = w.Core.World.bridge in
  let duration_ns = Engine.Sim.ms duration_ms in

  let cap = Netsim.Capture.create ~name:"cap0" ~capacity ~snaplen ~filter () in
  if not at_vif then Netsim.Capture.attach_bridge cap bridge;

  (* -- server appliance: HTTP on :80, UDP echo on :53 -- *)
  let router = Uhttp.Router.create () in
  Uhttp.Router.add router Uhttp.Http_wire.GET "/" (fun _ _ ->
      P.return (Uhttp.Http_wire.response ~status:200 (String.make 1024 'x')));
  let server =
    Core.World.appliance w ~config:(Core.Appliance.web_server ~aslr_seed:0x9ca ()) ~ip:"10.0.0.10"
      ~main:(fun h ->
        let stack = Core.Appliance.Handle.stack h in
        ignore
          (Core.Apps.Net.Http.of_router sim
             ~dom:(Core.Appliance.Handle.domain h)
             ~tcp:(Netstack.Stack.tcp stack) ~port:80 router);
        let udp = Netstack.Stack.udp stack in
        Netstack.Udp.listen udp ~port:53 (fun ~src ~src_port ~dst_port:_ ~payload ->
            P.async (fun () ->
                Netstack.Udp.sendto udp ~src_port:53 ~dst:src ~dst_port:src_port payload));
        P.sleep sim (duration_ns * 2) >>= fun () -> P.return 0)
      ()
  in
  if at_vif then
    Devices.Netif.set_capture (Core.Appliance.netif (Core.Appliance.Handle.networked server))
      (Some cap);
  (if loss > 0.0 then
     let nic = Devices.Netif.nic (Core.Appliance.netif (Core.Appliance.Handle.networked server)) in
     Netsim.Bridge.set_loss bridge nic loss);

  (* -- client: HTTP GET loop + a UDP query loop -- *)
  let client_stack =
    (Core.World.host w ~account_cpu:false ~name:"client" ~ip:"10.0.0.9" ())
      .Core.World.stack
  in
  let dst = Core.Appliance.Handle.address server in
  let rec http_drive () =
    P.catch
      (fun () ->
        P.with_timeout sim (Engine.Sim.ms 500) (fun () ->
            Core.Apps.Net.Http_client.get_once (Netstack.Stack.tcp client_stack) ~dst ~port:80 "/")
        >>= fun _ -> P.return ())
      (fun _ -> P.return ())
    >>= fun () ->
    P.sleep sim (Engine.Sim.ms 10) >>= fun () -> http_drive ()
  in
  P.async http_drive;
  let udp = Netstack.Stack.udp client_stack in
  Netstack.Udp.listen udp ~port:5353 (fun ~src:_ ~src_port:_ ~dst_port:_ ~payload:_ -> ());
  let rec udp_drive n =
    Netstack.Udp.sendto udp ~src_port:5353 ~dst ~dst_port:53
      (Bytestruct.of_string (Printf.sprintf "query-%d" n))
    >>= fun () ->
    P.sleep sim (Engine.Sim.ms 25) >>= fun () -> udp_drive (n + 1)
  in
  P.async (fun () -> udp_drive 0);

  let started = Engine.Sim.now sim in
  Engine.Sim.run ~until:(started + duration_ns) sim;

  (* -- render the ring -- *)
  Printf.printf "capture %s at %s: %d matched, %d stored, %d evicted (filter %S)\n"
    (Netsim.Capture.name cap)
    (if at_vif then "server vif" else "bridge")
    (Netsim.Capture.matched cap) (Netsim.Capture.stored cap) (Netsim.Capture.evicted cap)
    filter_str;
  Printf.printf "%5s %10s %-3s %4s %6s %5s  %s\n" "idx" "time" "dir" "link" "flow" "len" "summary";
  List.iteri
    (fun i (r : Netsim.Capture.record_info) ->
      Printf.printf "%5d %8.3fms %-3s %4d %6s %5d  %s\n" i
        (Engine.Sim.to_ms (r.Netsim.Capture.r_t - started))
        (dir_str r.Netsim.Capture.r_dir)
        r.Netsim.Capture.r_link
        (if r.Netsim.Capture.r_flow < 0 then "-" else string_of_int r.Netsim.Capture.r_flow)
        r.Netsim.Capture.r_len r.Netsim.Capture.r_summary)
    (Netsim.Capture.records cap);
  (match (out, flows_out) with
  | Some (file, oc), Some (_, flows_oc) ->
    output_string oc (Netsim.Capture.to_pcap cap);
    close_out oc;
    output_string flows_oc (Netsim.Capture.flows_json cap);
    close_out flows_oc;
    Printf.printf "\nwrote %s (libpcap, %d packets) and %s.flows (sidecar)\n" file
      (Netsim.Capture.stored cap) file
  | _ -> ());
  Netsim.Capture.close cap;
  Trace.quiesce ()

let cmd =
  let doc = "Capture wire traffic from a live scenario into a real pcap file" in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Simulation PRNG seed.") in
  let duration =
    Arg.(value & opt int 500 & info [ "duration-ms" ] ~docv:"MS" ~doc:"Virtual run length.")
  in
  let filter =
    Arg.(
      value & opt string ""
      & info [ "filter" ] ~docv:"EXPR"
          ~doc:
            "Capture filter, e.g. 'tcp and port 80 and flag syn'. Primitives: tcp udp icmp ip \
             arp, [src|dst] host A.B.C.D, [src|dst] port N, flag syn|ack|fin|rst|psh|urg; \
             combine with and/or/not/parens. Empty matches everything.")
  in
  let capacity =
    Arg.(
      value & opt int 256
      & info [ "capacity" ] ~docv:"N" ~doc:"Ring capacity: most recent $(docv) matches are kept.")
  in
  let snaplen =
    Arg.(value & opt int 65535 & info [ "snaplen" ] ~docv:"B" ~doc:"Stored bytes per frame cap.")
  in
  let at_vif =
    Arg.(
      value & flag
      & info [ "vif" ] ~doc:"Capture at the server's vif (device layer) instead of bridge-wide.")
  in
  let loss =
    Arg.(
      value & opt float 0.0
      & info [ "loss" ] ~docv:"P"
          ~doc:"Uniform loss probability on the server link (provokes retransmissions).")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:"Write the ring to $(docv) as libpcap plus $(docv).flows as the JSONL sidecar.")
  in
  Cmd.v (Cmd.info "pcap" ~doc)
    Term.(
      const run_pcap $ seed $ duration $ filter $ capacity $ snaplen $ at_vif $ loss $ out)
