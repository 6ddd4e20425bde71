(* Generates the pinned golden captures:

     gen_capture.exe http OUT.pcap OUT.flows       # Capture_scenario
     gen_capture.exe tcp_paths OUT.pcap OUT.flows  # Tcp_paths_scenario

   Capture_scenario is seed 11, bursty loss, filter "tcp and port 80";
   Tcp_paths_scenario is seed 11 with scripted drops. Each run is written
   as a real libpcap file plus its .flows JSONL sidecar. The committed
   capture.pcap / capture.flows and tcp_paths.pcap / tcp_paths.flows are
   this program's output; `dune runtest` re-runs the scenarios and
   diffs. After an intentional wire-format or scenario change, rerun
   `dune runtest` (the diff fails) and accept the new files with
   `dune promote`. *)

let () =
  let scenario, pcap_file, flows_file =
    match Sys.argv with
    | [| _; s; p; f |] -> (s, p, f)
    | _ -> failwith "usage: gen_capture.exe http|tcp_paths OUT.pcap OUT.flows"
  in
  let pcap, flows =
    match scenario with
    | "http" -> Testlib.Capture_scenario.run ()
    | "tcp_paths" -> Testlib.Tcp_paths_scenario.run ()
    | s -> failwith ("gen_capture: unknown scenario " ^ s)
  in
  let oc = open_out_bin pcap_file in
  output_string oc pcap;
  close_out oc;
  let oc = open_out flows_file in
  output_string oc flows;
  close_out oc;
  Printf.eprintf "wrote %s (%d bytes), %s\n" pcap_file (String.length pcap) flows_file
