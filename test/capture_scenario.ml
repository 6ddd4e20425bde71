(* The pinned capture scenario shared by the golden-pcap generator
   (test/golden/gen_capture.exe) and test_capture.ml: seed 11, two PV
   guests, HTTP GETs through a bursty-loss link (a small retransmit
   storm), a bridge-wide capture filtered to the HTTP connection. Runs
   with tracing enabled from a reset tracer so Trace.Flow ids are
   reproducible; returns the capture rendered as (pcap bytes, flows
   sidecar). Any intentional change here invalidates the committed
   test/golden/capture.pcap — regenerate it and `dune promote`. *)

module P = Mthread.Promise

let ( >>= ) = P.bind

let run () =
  Trace.quiesce ();
  Trace.enable ~capacity:65536 ();
  let w = Core.World.create ~seed:11 () in
  let sim = w.Core.World.sim and bridge = w.Core.World.bridge in
  let cap =
    Netsim.Capture.create ~name:"golden" ~capacity:512
      ~filter:
        (match Netsim.Capture.parse_filter "tcp and port 80" with
        | Ok f -> f
        | Error e -> failwith e)
      ()
  in
  Netsim.Capture.attach_bridge cap bridge;
  let s = Core.World.host w ~name:"server" ~ip:"10.0.0.2" () in
  let server = s.Core.World.stack in
  let client = (Core.World.host w ~name:"client" ~ip:"10.0.0.9" ()).Core.World.stack in
  (* bursty loss on the server link: the retransmit storm the walkthrough
     in EXPERIMENTS.md dissects *)
  Netsim.Bridge.set_faults bridge s.Core.World.nic
    (Netsim.Faults.make
       ~ge:(Netsim.Faults.burst_loss ~avg_loss:0.08 ~burst_len:4 ())
       ());
  ignore
    (Core.Apps.Net.Http.create sim ~dom:s.Core.World.dom ~tcp:(Netstack.Stack.tcp server) ~port:80
       (fun _req -> P.return (Uhttp.Http_wire.response ~status:200 (String.make 2048 'y'))));
  let dst = Netstack.Stack.address server in
  P.run sim
    (let rec get n =
       if n = 0 then P.return ()
       else
         P.catch
           (fun () ->
             P.with_timeout sim (Engine.Sim.ms 500) (fun () ->
                 Core.Apps.Net.Http_client.get_once (Netstack.Stack.tcp client) ~dst ~port:80 "/")
             >>= fun _ -> P.return ())
           (fun _ -> P.return ())
         >>= fun () ->
         P.sleep sim (Engine.Sim.ms 2) >>= fun () -> get (n - 1)
     in
     get 8);
  let pcap = Netsim.Capture.to_pcap cap in
  let flows = Netsim.Capture.flows_json cap in
  Netsim.Capture.close cap;
  Trace.quiesce ();
  (pcap, flows)
