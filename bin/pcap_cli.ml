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

let dir_str = function Netsim.Tx -> "tx" | Netsim.Rx -> "rx"

let run_pcap seed duration_ms filter_str capacity snaplen at_vif loss out =
  let filter =
    match Capture.parse_filter filter_str with
    | Ok f -> f
    | Error e ->
      Printf.eprintf "pcap: bad filter %S: %s\n" filter_str e;
      exit 2
  in
  let out = Plane_cli.open_output out in
  let flows_out = Plane_cli.open_output (Option.map (fun (f, _) -> f ^ ".flows") out) in
  Trace.enable ();
  let w = Core.World.create ~seed () in
  let sim = w.Core.World.sim and bridge = w.Core.World.bridge in
  let duration_ns = Engine.Sim.ms duration_ms in

  let cap = Capture.create ~name:"cap0" ~capacity ~snaplen ~filter () in
  if not at_vif then Capture.attach_bridge cap bridge;

  ignore
    (Scenario.web_and_echo w
       ?vif_capture:(if at_vif then Some cap else None)
       ~aslr_seed:0x9ca ~page_bytes:1024 ~loss ~duration_ns ~http_gap_ns:(Engine.Sim.ms 10)
       ~query:(Printf.sprintf "query-%d") ~query_gap_ns:(Engine.Sim.ms 25) ());

  let started = Engine.Sim.now sim in
  Engine.Sim.run ~until:(started + duration_ns) sim;

  (* -- render the ring -- *)
  Printf.printf "capture %s at %s: %d matched, %d stored, %d evicted (filter %S)\n"
    (Capture.name cap)
    (if at_vif then "server vif" else "bridge")
    (Capture.matched cap) (Capture.stored cap) (Capture.evicted cap)
    filter_str;
  Printf.printf "%5s %10s %-3s %4s %6s %5s  %s\n" "idx" "time" "dir" "link" "flow" "len" "summary";
  List.iteri
    (fun i (r : Capture.record_info) ->
      Printf.printf "%5d %8.3fms %-3s %4d %6s %5d  %s\n" i
        (Engine.Sim.to_ms (r.Capture.r_t - started))
        (dir_str r.Capture.r_dir)
        r.Capture.r_link
        (if r.Capture.r_flow < 0 then "-" else string_of_int r.Capture.r_flow)
        r.Capture.r_len r.Capture.r_summary)
    (Capture.records cap);
  (match (out, flows_out) with
  | Some (file, oc), Some (_, flows_oc) ->
    output_string oc (Capture.to_pcap cap);
    close_out oc;
    output_string flows_oc (Capture.flows_json cap);
    close_out flows_oc;
    Printf.printf "\nwrote %s (libpcap, %d packets) and %s.flows (sidecar)\n" file
      (Capture.stored cap) file
  | _ -> ());
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
