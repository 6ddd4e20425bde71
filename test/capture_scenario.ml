(* The pinned capture scenario shared by the golden-pcap generator
   (test/golden/gen_capture.exe) and test_capture.ml: seed 11, two PV
   guests, HTTP GETs through a bursty-loss link (a small retransmit
   storm), a bridge-wide capture filtered to the HTTP connection. Runs
   with tracing enabled from a reset tracer so Trace.Flow ids are
   reproducible; returns the capture rendered as (pcap bytes, flows
   sidecar). Any intentional change here invalidates the committed
   test/golden/capture.pcap — regenerate it and `dune promote`. *)

module P = Mthread.Promise

let gets_through_loss w _cap =
  let sim = w.Core.World.sim and bridge = w.Core.World.bridge in
  let s = Core.World.host w ~name:"server" ~ip:"10.0.0.2" () in
  let server = s.Core.World.stack in
  let client = (Core.World.host w ~name:"client" ~ip:"10.0.0.9" ()).Core.World.stack in
  (* bursty loss on the server link: the retransmit storm the walkthrough
     in EXPERIMENTS.md dissects *)
  Netsim.Bridge.set_faults bridge s.Core.World.nic
    (Netsim.Faults.make
       ~ge:(Netsim.Faults.burst_loss ~avg_loss:0.08 ~burst_len:4)
       ());
  ignore
    (Core.Apps.Net.Http.create sim ~dom:s.Core.World.dom ~tcp:(Netstack.Stack.tcp server) ~port:80
       (fun _req -> P.return (Uhttp.Http_wire.response ~status:200 (String.make 2048 'y'))));
  P.run sim
    (Scenario.http_load sim (Netstack.Stack.tcp client) ~dst:(Netstack.Stack.address server)
       ~timeout_ns:(Engine.Sim.ms 500) ~gap_ns:(Engine.Sim.ms 2) ~count:8 ())

let run () =
  Scenario.traced_capture ~name:"golden" ~capacity:512 ~filter:"tcp and port 80" gets_through_loss
