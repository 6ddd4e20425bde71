(* Chaos matrix: Fig-8-style bulk transfers under every fault schedule ×
   a pool of PRNG seeds, asserting payload integrity and termination and
   reporting goodput plus the injected-fault and recovery counters. The
   fast pinned-seed subset runs in `dune runtest` (test/test_chaos.ml);
   this is the full sweep, with `--trace` support from the main harness. *)

module P = Mthread.Promise
module N = Netstack
module F = Netsim.Faults
module Metrics = Uhttp.Metrics_export.Make (Netstack.Device)
module Mon = Monitor.Make (Netstack.Device.Tcp)

let bytes = 200_000
let deadline_ns = Engine.Sim.sec 60
let seeds = [ 1; 2; 3; 5; 7; 11; 42; 101; 443; 1001; 4242; 65537 ]
let schedules = Scenario.chaos_schedules

let one_run ~seed ~schedule =
  let o = Scenario.bulk_transfer ~seed ~schedule ~bytes ~chunk:4096 ~deadline_ns () in
  match o.Scenario.eof_ns with
  | None ->
    Error
      (Printf.sprintf "did not terminate (client %s / server %s, %d/%d bytes, sim now %dms)"
         o.client_state o.server_state o.received bytes (deadline_ns / 1_000_000))
  | Some _ when not o.intact -> Error "payload corrupted"
  | Some elapsed ->
    Ok (float_of_int bytes *. 8.0 /. Engine.Sim.to_sec elapsed /. 1e6, o)

(* ---- alerting accuracy (the monitoring plane's chaos check) ----

   A web exporter scraped by the monitor over the same simulated
   network, once on a clean link and once under Gilbert–Elliott burst
   loss heavy enough to collapse goodput. The goodput-floor SLO must
   fire under loss and stay quiet on the clean run — the monitoring
   plane's false-negative and false-positive bounds, checked in-sim. *)

let alert_interval_ns = Engine.Sim.ms 50
let alert_duration_ns = Engine.Sim.sec 3
let goodput_floor = 20_000.0 (* bytes/s; clean load runs well above 100 kB/s *)

let alerting_run ~seed ~lossy =
  Trace.Metrics.enable ();
  let w = Util.make_world ~seed () in
  let web = Util.host w ~platform:Platform.xen_extent ~name:"web" ~ip:"10.0.0.2" () in
  let mon = Util.host w ~platform:Platform.xen_extent ~name:"monitor" ~ip:"10.0.0.3" () in
  let client =
    Util.host w ~platform:Platform.linux_native ~account_cpu:false ~name:"load"
      ~ip:"10.0.0.9" ()
  in
  ignore
    (Core.Apps.Net.Http.create w.Util.sim ~dom:web.Util.dom
       ~tcp:(N.Stack.tcp web.Util.stack) ~port:80 (fun _req ->
         P.return (Uhttp.Http_wire.response ~status:200 (String.make 512 'x'))));
  Metrics.mount w.Util.sim ~dom:web.Util.dom ~port:9100 web.Util.stack;
  let client_tcp = N.Stack.tcp client.Util.stack in
  let dst = N.Stack.address web.Util.stack in
  P.async (fun () ->
      Scenario.http_load w.Util.sim client_tcp ~dst ~timeout_ns:(Engine.Sim.ms 200)
        ~gap_ns:(Engine.Sim.ms 2) ~backoff_ns:(Engine.Sim.ms 5) ());
  let rules =
    [
      Monitor.Slo.rule "goodput-floor"
        ~source:(Monitor.Slo.Rate "http_bytes_sent")
        ~cmp:Monitor.Slo.Below ~threshold:goodput_floor;
    ]
  in
  let m =
    Mon.create w.Util.sim ~tcp:(N.Stack.tcp mon.Util.stack)
      ~interval_ns:alert_interval_ns ~rules ()
  in
  Mon.add_target m ~name:"web"
    ~addr:(N.Ipaddr.of_string "10.0.0.2")
    ~port:9100;
  if lossy then
    Netsim.Bridge.set_faults w.Util.bridge web.Util.nic
      (F.make ~ge:(F.burst_loss ~avg_loss:0.4 ~burst_len:30) ());
  P.async (fun () -> Mon.run m);
  let now = Engine.Sim.now w.Util.sim in
  Engine.Sim.run w.Util.sim ~until:(now + alert_duration_ns);
  let fired =
    List.length
      (List.filter
         (fun a -> a.Monitor.al_rule = "goodput-floor")
         (Mon.alerts m))
  in
  Trace.Metrics.disable ();
  Trace.Metrics.reset ();
  fired

let alerting_accuracy () =
  Util.header "Chaos: monitoring-plane alerting accuracy (goodput SLO)";
  let failures = ref 0 in
  List.iter
    (fun seed ->
      let clean = alerting_run ~seed ~lossy:false in
      let lossy = alerting_run ~seed ~lossy:true in
      Util.emit ~figure:"chaos" ~seed
        ~metric:"alerting/goodput-alerts-clean" ~unit_:"count" (float_of_int clean);
      Util.emit ~figure:"chaos" ~seed
        ~metric:"alerting/goodput-alerts-lossy" ~unit_:"count" (float_of_int lossy);
      let verdict =
        if clean = 0 && lossy > 0 then "ok"
        else begin
          incr failures;
          Printf.sprintf "FAILED (%s)"
            (if clean > 0 then "false positive on clean link" else "missed the outage")
        end
      in
      Printf.printf "  seed %-6d clean: %d alerts, burst-loss: %d alerts  %s\n" seed clean
        lossy verdict)
    [ 42; 7; 1001 ];
  if !failures = 0 then
    Printf.printf "  (SLO fired under Gilbert-Elliott loss and stayed quiet on every clean run)\n";
  !failures

let run () =
  Util.header
    (Printf.sprintf "Chaos matrix: %d KB transfers, %d schedules x %d seeds"
       (bytes / 1000) (List.length schedules) (List.length seeds));
  Printf.printf "  %-18s %-10s %-10s %-8s %-7s %-6s %-8s %-8s\n" "schedule" "goodput" "(min)"
    "faults" "rtx" "fast" "rto" "persist";
  let failures = ref 0 in
  List.iter
    (fun (name, schedule) ->
      let outcomes = List.map (fun seed -> (seed, one_run ~seed ~schedule)) seeds in
      List.iter
        (function
          | seed, Error e ->
            incr failures;
            Printf.printf "  %-18s seed %-6d FAILED: %s\n" name seed e
          | seed, Ok o ->
            Util.emit ~figure:"chaos" ~seed
              ~metric:(Printf.sprintf "goodput/%s" name)
              ~unit_:"Mbps" (fst o))
        outcomes;
      let oks = List.filter_map (function _, Ok o -> Some o | _ -> None) outcomes in
      if List.length oks = List.length seeds then begin
        let goodputs = List.map fst oks in
        let mean = List.fold_left ( +. ) 0.0 goodputs /. float_of_int (List.length oks) in
        let mn = List.fold_left min infinity goodputs in
        let isum f = List.fold_left (fun acc (_, o) -> acc + f o) 0 oks in
        Printf.printf "  %-18s %6.1f Mbps %6.1f Mbps %6d %7d %6d %8d %8d\n" name mean mn
          (isum (fun o -> Scenario.faults_injected o.Scenario.faults))
          (isum (fun o -> o.Scenario.retransmits))
          (isum (fun o -> o.Scenario.fast_retransmits))
          (isum (fun o -> o.Scenario.rtos))
          (isum (fun o -> o.Scenario.persists))
      end)
    schedules;
  if !failures = 0 then
    Printf.printf "  (all %d runs: payload checksum intact, terminated inside the deadline)\n"
      (List.length schedules * List.length seeds)
  else Printf.printf "  %d of %d runs FAILED\n" !failures (List.length schedules * List.length seeds);
  failures := !failures + alerting_accuracy ();
  if !failures > 0 then exit 1
