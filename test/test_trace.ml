(* lib/trace: ring wraparound, span nesting, counter saturation, disabled
   no-op behaviour, deterministic JSON-lines output, and the emit points
   wired through the xensim/devices/netstack hot paths. *)

open Testlib
module P = Mthread.Promise

(* Run [f] with a clean, enabled trace; always leave the global trace
   disabled and empty for the other suites in this binary. *)
let with_trace ?(capacity = 4096) f =
  Trace.enable ~capacity ();
  Trace.reset ();
  Fun.protect ~finally:Trace.quiesce f

let nth_event evs i = List.nth evs i

(* ---- ring buffer ---- *)

let test_ring_wraparound () =
  with_trace ~capacity:4 (fun () ->
      for i = 0 to 5 do
        Trace.emit ~cat:(Trace.User "test") ~payload:[ ("i", Trace.Int i) ] "tick"
      done;
      let evs = Trace.events () in
      check_int "retained" 4 (List.length evs);
      check_int "dropped" 2 (Trace.dropped ());
      (* Oldest two overwritten: seqs 2..5 survive, in order. *)
      List.iteri (fun i (ev : Trace.event) -> check_int "seq" (i + 2) ev.Trace.seq) evs;
      let times = List.map (fun (ev : Trace.event) -> ev.Trace.time) evs in
      check_bool "timestamps non-decreasing" true (List.sort compare times = times))

(* ---- spans ---- *)

let test_span_nesting () =
  with_trace (fun () ->
      let now = ref 0 in
      Trace.set_clock (fun () -> !now);
      let outer = Trace.span ~dom:1 ~cat:Trace.Device "outer" in
      now := 100;
      let inner = Trace.span ~dom:1 ~cat:Trace.Device "inner" in
      now := 250;
      Trace.finish inner;
      now := 400;
      Trace.finish outer;
      Trace.finish outer (* closing twice is a no-op *);
      let evs = Trace.events () in
      check_int "four events" 4 (List.length evs);
      let phase i = (nth_event evs i).Trace.phase in
      let depth i = (nth_event evs i).Trace.depth in
      let name i = (nth_event evs i).Trace.name in
      check_bool "B outer" true (phase 0 = Trace.Begin && name 0 = "outer" && depth 0 = 0);
      check_bool "B inner" true (phase 1 = Trace.Begin && name 1 = "inner" && depth 1 = 1);
      check_bool "E inner" true (phase 2 = Trace.End && name 2 = "inner" && depth 2 = 1);
      check_bool "E outer" true (phase 3 = Trace.End && name 3 = "outer" && depth 3 = 0);
      match Trace.span_stats () with
      | [ inner_s; outer_s ] ->
        check_string "inner first (sorted)" "inner" inner_s.Trace.span_name;
        check_int "inner duration" 150 inner_s.Trace.span_min_ns;
        check_int "inner max" 150 inner_s.Trace.span_max_ns;
        check_int "inner count" 1 inner_s.Trace.span_count;
        check_int "outer duration" 400 outer_s.Trace.span_total_ns;
        check_int "outer hist count" 1 (Trace.Hist.count outer_s.Trace.span_hist)
      | l -> Alcotest.failf "expected 2 span stats, got %d" (List.length l))

let test_record_span_ns () =
  with_trace (fun () ->
      Trace.record_span_ns ~dom:3 ~cat:Trace.Net "tcp.rtt" 1000;
      Trace.record_span_ns ~dom:3 ~cat:Trace.Net "tcp.rtt" 3000;
      match Trace.span_stats () with
      | [ s ] ->
        check_int "count" 2 s.Trace.span_count;
        check_int "total" 4000 s.Trace.span_total_ns;
        check_int "min" 1000 s.Trace.span_min_ns;
        check_int "max" 3000 s.Trace.span_max_ns;
        check_int "dom" 3 s.Trace.span_dom
      | l -> Alcotest.failf "expected 1 span stat, got %d" (List.length l))

(* ---- log-linear histograms ---- *)

(* Known distributions: the histogram's percentile estimate must track
   the exact order-statistics percentile (Engine.Stats.percentile) within
   the bucket quantization (< 1% relative above the linear range, exact
   below it). *)
let check_hist_close ~what samples =
  let h = Trace.Hist.create () in
  List.iter (Trace.Hist.record h) samples;
  let floats = List.map float_of_int samples in
  check_int (what ^ " count") (List.length samples) (Trace.Hist.count h);
  check_int (what ^ " total") (List.fold_left ( + ) 0 samples) (Trace.Hist.total h);
  check_int (what ^ " min") (List.fold_left min max_int samples) (Trace.Hist.min_ns h);
  check_int (what ^ " max") (List.fold_left max 0 samples) (Trace.Hist.max_ns h);
  List.iter
    (fun p ->
      let exact = Engine.Stats.percentile p floats in
      let approx = Trace.Hist.percentile h p in
      let tol = max 1.0 (0.015 *. Float.abs exact) in
      if Float.abs (approx -. exact) > tol then
        Alcotest.failf "%s p%.0f: hist %.1f vs exact %.1f (tol %.2f)" what p approx exact tol)
    [ 0.; 50.; 90.; 95.; 99.; 100. ]

let test_hist_accuracy () =
  check_hist_close ~what:"uniform 1..1000" (List.init 1000 (fun i -> i + 1));
  check_hist_close ~what:"constant" (List.init 50 (fun _ -> 4242));
  check_hist_close ~what:"small exact range" (List.init 100 (fun i -> i));
  (* heavy tail: mostly small with rare large values, like rtt samples *)
  let prng = Engine.Prng.create ~seed:7 () in
  check_hist_close ~what:"heavy tail"
    (List.init 2000 (fun _ ->
         let base = 1 + Engine.Prng.int prng 700 in
         if Engine.Prng.int prng 100 < 3 then base * 997 else base))

let test_hist_merge () =
  let all = List.init 500 (fun i -> (i * 37 mod 1000) + 1) in
  let left, right = List.partition (fun v -> v mod 2 = 0) all in
  let ha = Trace.Hist.create () and hb = Trace.Hist.create () and hc = Trace.Hist.create () in
  List.iter (Trace.Hist.record ha) left;
  List.iter (Trace.Hist.record hb) right;
  List.iter (Trace.Hist.record hc) all;
  let m = Trace.Hist.merge ha hb in
  check_int "merged count" (Trace.Hist.count hc) (Trace.Hist.count m);
  check_int "merged total" (Trace.Hist.total hc) (Trace.Hist.total m);
  check_int "merged min" (Trace.Hist.min_ns hc) (Trace.Hist.min_ns m);
  check_int "merged max" (Trace.Hist.max_ns hc) (Trace.Hist.max_ns m);
  List.iter
    (fun p ->
      check (Alcotest.float 0.0001) "merged percentile == combined percentile"
        (Trace.Hist.percentile hc p) (Trace.Hist.percentile m p))
    [ 0.; 25.; 50.; 75.; 95.; 99.; 100. ];
  check_bool "buckets agree" true (Trace.Hist.buckets hc = Trace.Hist.buckets m)

(* ---- clock re-basing across simulator instances ---- *)

let test_set_clock_rebase () =
  with_trace (fun () ->
      let sim1 = Engine.Sim.create ~seed:1 () in
      ignore (Engine.Sim.at sim1 ~time:1000 (fun () -> Trace.emit ~cat:Trace.Sched "first"));
      Engine.Sim.run sim1;
      (* A second simulator starts its own clock at 0; set_clock (called
         by Sim.create) re-bases so the shared timeline never reverses. *)
      let sim2 = Engine.Sim.create ~seed:2 () in
      ignore (Engine.Sim.at sim2 ~time:500 (fun () -> Trace.emit ~cat:Trace.Sched "second"));
      Engine.Sim.run sim2;
      let times =
        List.filter_map
          (fun (ev : Trace.event) ->
            if ev.Trace.name = "first" || ev.Trace.name = "second" then Some ev.Trace.time
            else None)
          (Trace.events ())
      in
      (match times with
      | [ t1; t2 ] ->
        check_int "first at sim1 time" 1000 t1;
        check_int "second re-based past the first sim's clock" 1500 t2
      | l -> Alcotest.failf "expected 2 events, got %d" (List.length l));
      let all = List.map (fun (ev : Trace.event) -> ev.Trace.time) (Trace.events ()) in
      check_bool "whole timeline monotone" true (List.sort compare all = all))

(* ---- counters ---- *)

let test_counter_saturation () =
  with_trace (fun () ->
      let c = Trace.counter "test.sat" in
      Trace.add c (max_int - 1);
      check_int "near max" (max_int - 1) (Trace.counter_value c);
      Trace.incr c;
      check_int "at max" max_int (Trace.counter_value c);
      Trace.add c 5;
      check_int "saturates, no wraparound" max_int (Trace.counter_value c);
      check_bool "listed" true (List.mem_assoc "test.sat" (Trace.counters ())))

(* ---- gauges ---- *)

let test_gauges () =
  with_trace (fun () ->
      let g = Trace.gauge "test.inflight" in
      Trace.gauge_add g 1;
      Trace.gauge_add g 1;
      Trace.gauge_add g (-1);
      check_int "delta-tracked level" 1 (Trace.gauge_value g);
      Trace.gauge_set g 42;
      check_int "set overrides" 42 (Trace.gauge_value g);
      check_bool "listed" true (List.mem_assoc "test.inflight" (Trace.gauges ()));
      let g' = Trace.gauge "test.inflight" in
      Trace.gauge_add g' 1;
      check_int "same name, same gauge" 43 (Trace.gauge_value g);
      Trace.reset ();
      check_int "reset zeroes, keeps registration" 0 (Trace.gauge_value g);
      Trace.disable ();
      Trace.gauge_add g 7;
      check_int "disabled updates are no-ops" 0 (Trace.gauge_value g))

(* ---- the metrics registry ---- *)

let with_metrics f =
  Trace.Metrics.reset ();
  Trace.Metrics.enable ();
  Fun.protect ~finally:Trace.quiesce f

let test_metrics_registry () =
  with_metrics (fun () ->
      let c = Trace.Metrics.counter ~dom:3 "http_requests" in
      Trace.Metrics.inc c 2;
      Trace.Metrics.inc c (-5) (* counters only move forward *);
      let backing = ref 17 in
      Trace.Metrics.register_read ~dom:3 ~kind:Trace.Metrics.Gauge "tcp_active_flows" (fun () ->
          !backing);
      let s = Trace.Metrics.summary ~dom:3 "http_request_ns" in
      List.iter (Trace.Metrics.observe s) [ 1_000; 2_000; 4_000 ];
      (match Trace.Metrics.snapshot ~dom:3 () with
      | [ reqs; lat; flows ] ->
        (* sorted by name: http_request_ns, http_requests, tcp_active_flows *)
        check_string "summary name" "http_request_ns" reqs.Trace.Metrics.s_name;
        check_int "summary count" 3 reqs.Trace.Metrics.s_value;
        check_int "summary sum" 7_000 reqs.Trace.Metrics.s_sum;
        check_int "counter value" 2 lat.Trace.Metrics.s_value;
        check_int "pull-based read" 17 flows.Trace.Metrics.s_value
      | l -> Alcotest.failf "expected 3 samples, got %d" (List.length l));
      backing := 23;
      let text = Trace.Metrics.to_text ~dom:3 () in
      let contains needle =
        let nl = String.length needle and tl = String.length text in
        let rec go i = i + nl <= tl && (String.sub text i nl = needle || go (i + 1)) in
        go 0
      in
      check_bool "exposition text complete" true
        (List.for_all contains
           [
             "# TYPE http_requests counter";
             "http_requests{dom=\"3\"} 2";
             "# TYPE tcp_active_flows gauge";
             "tcp_active_flows{dom=\"3\"} 23";
             "http_request_ns_count{dom=\"3\"} 3";
             "quantile=\"0.99\"";
           ]))

let test_metrics_disabled_and_detached () =
  Trace.Metrics.disable ();
  Trace.Metrics.reset ();
  (* registration with the plane off leaves no trace and the handle is
     inert, so figure runs stay unperturbed *)
  let c = Trace.Metrics.counter "noop" in
  Trace.Metrics.inc c 5;
  check_int "disabled registration invisible" 0 (List.length (Trace.Metrics.snapshot ()));
  check_int "disabled update is a no-op" 0 (Trace.Metrics.value c);
  with_metrics (fun () ->
      let d = Trace.Metrics.detached in
      Trace.Metrics.inc d 5;
      Trace.Metrics.observe d 100;
      (* a detached handle may tick privately but is never registered,
         so nothing it sees ever reaches a snapshot or the exposition *)
      check_int "detached never registers" 0 (List.length (Trace.Metrics.snapshot ()));
      check_string "detached never exported" "" (Trace.Metrics.to_text ()))

(* ---- disabled tracing ---- *)

let test_disabled_noop () =
  Trace.disable ();
  Trace.reset ();
  check_bool "disabled" false (Trace.enabled ());
  let c = Trace.counter "test.noop" in
  Trace.incr c;
  Trace.add c 41;
  Trace.emit ~cat:Trace.Net "nothing";
  let sp = Trace.span ~dom:7 ~cat:Trace.Net "nothing" in
  Trace.finish sp;
  Trace.record_span_ns ~cat:Trace.Net "nothing" 5;
  check_int "no events" 0 (List.length (Trace.events ()));
  check_int "no drops" 0 (Trace.dropped ());
  check_int "counter untouched" 0 (Trace.counter_value c);
  check_int "no span stats" 0 (List.length (Trace.span_stats ()))

(* ---- JSON-lines export ---- *)

(* Boot two hosts and ping across the bridge — exercises netif spans,
   evtchn notifies, ring pushes and grant copies deterministically. *)
let traced_ping_run ~seed =
  Trace.enable ~capacity:65536 ();
  Trace.reset ();
  let w = make_world ~seed () in
  let a = make_host w ~name:"a" ~ip:"10.0.0.1" () in
  let b = make_host w ~name:"b" ~ip:"10.0.0.2" () in
  let rtt =
    run w
      (Netstack.Icmp4.ping (Netstack.Stack.icmp a.stack) ~dst:(Netstack.Stack.address b.stack)
         ~seq:1 ())
  in
  Engine.Sim.run w.sim;
  check_bool "ping completed" true (rtt > 0);
  let lines = List.map Trace.to_json_line (Trace.events ()) in
  let events = Trace.events () in
  Trace.quiesce ();
  (lines, events)

let test_deterministic_jsonl () =
  let lines1, events = traced_ping_run ~seed:2013 in
  let lines2, _ = traced_ping_run ~seed:2013 in
  check_bool "some events traced" true (lines1 <> []);
  check_bool "identical JSONL across identically-seeded runs" true (lines1 = lines2);
  (* every line is one valid JSON object with the expected fields *)
  List.iter
    (fun line ->
      match Formats.Json.parse line with
      | Formats.Json.Object members ->
        check_bool "has t" true (List.mem_assoc "t" members);
        check_bool "has cat" true (List.mem_assoc "cat" members);
        check_bool "has name" true (List.mem_assoc "name" members)
      | _ -> Alcotest.fail "JSONL line is not an object")
    lines1;
  (* virtual timestamps never go backwards *)
  let times = List.map (fun (ev : Trace.event) -> ev.Trace.time) events in
  check_bool "monotone timestamps" true (List.sort compare times = times);
  (* the hot paths all reported in *)
  let cats = List.map (fun (ev : Trace.event) -> ev.Trace.cat) events in
  check_bool "hypercall events" true (List.mem Trace.Hypercall cats);
  check_bool "evtchn events" true (List.mem Trace.Evtchn cats);
  check_bool "ring events" true (List.mem Trace.Ring cats);
  check_bool "device events" true (List.mem Trace.Device cats);
  check_bool "sched events" true (List.mem Trace.Sched cats)

(* Full appliance boot: hypercalls (seal), boot span, device spans. *)
let test_appliance_boot_trace () =
  Trace.enable ~capacity:65536 ();
  Trace.reset ();
  Fun.protect ~finally:Trace.quiesce (fun () ->
      let w = make_world () in
      let ts = Xensim.Toolstack.create w.hv in
      let ip =
        {
          Netstack.Ipv4.address = Netstack.Ipaddr.of_string "10.0.0.53";
          netmask = Netstack.Ipaddr.of_string "255.255.255.0";
          gateway = None;
        }
      in
      let networked =
        run w
          (Core.Appliance.start w.hv ts
             (Core.Boot_spec.make ~backend_dom:w.dom0 ~bridge:w.bridge
                ~config:(Core.Appliance.dns_appliance ()) ~ip ())
             ~main:(fun _ -> P.return 0))
        |> Core.Appliance.Handle.networked
      in
      Engine.Sim.run w.sim;
      check_bool "booted" true
        (Xensim.Pagetable.is_sealed
           networked.Core.Appliance.unikernel.Core.Unikernel.domain.Xensim.Domain.pagetable);
      let cats = List.map (fun (ev : Trace.event) -> ev.Trace.cat) (Trace.events ()) in
      check_bool "hypercall events" true (List.mem Trace.Hypercall cats);
      check_bool "boot events" true (List.mem Trace.Boot cats);
      let boot_spans =
        List.filter (fun s -> s.Trace.span_name = "appliance.boot") (Trace.span_stats ())
      in
      check_int "one appliance.boot span" 1 (List.length boot_spans);
      check_bool "boot took virtual time" true
        ((List.hd boot_spans).Trace.span_total_ns > 0);
      (* the summary renderer digests this state without blowing up *)
      check_bool "summary non-empty" true (String.length (Engine.Trace_report.summary_string ()) > 0))

(* ---- causal flow propagation ---- *)

(* A DNS query over the simulated network: the server-side flow (started
   at its backend's netif RX) must carry through evtchn/ring delivery,
   the UDP stack and the DNS handler, and back out the TX path. *)
let test_flow_propagation () =
  Trace.enable ~capacity:65536 ();
  Trace.reset ();
  Fun.protect ~finally:Trace.quiesce (fun () ->
      let w = make_world () in
      let server = make_host w ~platform:Platform.xen_extent ~name:"dns" ~ip:"10.0.0.53" () in
      let client = make_host w ~platform:Platform.linux_native ~name:"resolver" ~ip:"10.0.0.9" () in
      let zone = Dns.Zone.synthesize ~origin:"test.zone" ~entries:100 in
      let _srv =
        Core.Apps.Net.Dns.create w.sim ~dom:server.dom ~udp:(Netstack.Stack.udp server.stack)
          ~db:(Dns.Db.of_zone zone)
          ~engine:(Dns.Server.Mirage { memoize = false })
          ()
      in
      let reply =
        run w
          (Core.Apps.Net.Dns.Client.query w.sim
             (Netstack.Stack.udp client.stack)
             ~server:(Netstack.Stack.address server.stack)
             ~qname:(Dns.Dns_name.of_string "host-42.test.zone")
             ~qtype:Dns.Dns_wire.A ())
      in
      Engine.Sim.run w.sim;
      check_bool "query answered" true (reply <> None);
      let evs = Trace.events () in
      let flows = Hashtbl.create 8 in
      List.iter
        (fun (ev : Trace.event) ->
          if ev.Trace.flow >= 0 then begin
            let l = try Hashtbl.find flows ev.Trace.flow with Not_found -> [] in
            Hashtbl.replace flows ev.Trace.flow (ev :: l)
          end)
        evs;
      check_bool "several flows allocated" true (Hashtbl.length flows >= 2);
      (* the DNS handler ran under some flow, and that flow also touched
         the device and evtchn layers on its way up *)
      let dns_flow =
        Hashtbl.fold
          (fun fl l acc ->
            if List.exists (fun (ev : Trace.event) -> ev.Trace.name = "dns.handle") l then Some (fl, l)
            else acc)
          flows None
      in
      (match dns_flow with
      | None -> Alcotest.fail "no flow reached the DNS handler"
      | Some (_, l) ->
        let cats = List.map (fun (ev : Trace.event) -> ev.Trace.cat) l in
        check_bool "flow crossed device layer" true (List.mem Trace.Device cats);
        check_bool "flow crossed evtchn layer" true (List.mem Trace.Evtchn cats);
        check_bool "flow crossed ring layer" true (List.mem Trace.Ring cats);
        check_bool "flow reached the app layer" true (List.mem (Trace.User "dns") cats);
        let times = List.rev_map (fun (ev : Trace.event) -> ev.Trace.time) l in
        check_bool "flow timeline monotone" true (List.sort compare times = times));
      (* flow.begin events carry their own flow id *)
      List.iter
        (fun (ev : Trace.event) ->
          if ev.Trace.name = "flow.begin" then
            check_bool "flow.begin stamped with its id" true (ev.Trace.flow >= 0))
        evs)

(* ---- profiler (Prof) ---- *)

let with_prof f =
  Trace.Prof.reset ();
  Trace.Prof.enable ();
  Fun.protect ~finally:Trace.quiesce f

let find_stat ~dom ~stack =
  List.find_opt
    (fun (s : Trace.Prof.stat) -> s.Trace.Prof.p_dom = dom && s.Trace.Prof.p_stack = stack)
    (Trace.Prof.stats ())

let test_prof_folded_stacks () =
  with_prof (fun () ->
      Trace.Prof.account ~dom:2 10;
      Trace.Prof.with_frame "netif" (fun () ->
          Trace.Prof.account ~dom:1 100;
          Trace.Prof.with_frame "tcp" (fun () -> Trace.Prof.account ~dom:1 ~wait_ns:7 50));
      (* a second visit interns the same frame node and accumulates *)
      Trace.Prof.with_frame "netif" (fun () -> Trace.Prof.account ~dom:1 25);
      (match find_stat ~dom:2 ~stack:"engine" with
      | Some s -> check_int "root run" 10 s.Trace.Prof.p_run_ns
      | None -> Alcotest.fail "no engine stack for dom 2");
      (match find_stat ~dom:1 ~stack:"engine;netif" with
      | Some s ->
        check_int "netif run accumulates" 125 s.Trace.Prof.p_run_ns;
        check_int "netif samples" 2 s.Trace.Prof.p_samples
      | None -> Alcotest.fail "no engine;netif stack");
      match find_stat ~dom:1 ~stack:"engine;netif;tcp" with
      | Some s ->
        check_int "nested run" 50 s.Trace.Prof.p_run_ns;
        check_int "nested wait" 7 s.Trace.Prof.p_wait_ns
      | None -> Alcotest.fail "no engine;netif;tcp stack")

(* The frame stack is ambient: a callback deferred through the scheduler
   chokepoint keeps the stack of the code that scheduled it (same
   capture trick as causal flow ids). *)
let test_prof_scheduler_capture () =
  with_prof (fun () ->
      let sim = Engine.Sim.create () in
      Trace.Prof.with_frame "netif" (fun () ->
          ignore
            (Engine.Sim.schedule sim ~delay:10 (fun () ->
                 Trace.Prof.with_frame "tcp" (fun () -> Trace.Prof.account ~dom:3 77))));
      Engine.Sim.run sim;
      match find_stat ~dom:3 ~stack:"engine;netif;tcp" with
      | Some s -> check_int "deferred account keeps the stack" 77 s.Trace.Prof.p_run_ns
      | None -> Alcotest.fail "frame stack not captured across Sim.at")

let test_prof_unregister () =
  with_prof (fun () ->
      Trace.Prof.with_frame "netif" (fun () ->
          Trace.Prof.account ~dom:1 10;
          Trace.Prof.account ~dom:2 20);
      Trace.drop_dom 1;
      check_bool "dom 1 series dropped" true (find_stat ~dom:1 ~stack:"engine;netif" = None);
      match find_stat ~dom:2 ~stack:"engine;netif" with
      | Some s -> check_int "dom 2 series survives" 20 s.Trace.Prof.p_run_ns
      | None -> Alcotest.fail "drop_dom dropped the wrong series")

let test_prof_disabled_noop () =
  Trace.Prof.reset ();
  Trace.Prof.account ~dom:1 100;
  Trace.Prof.with_frame "netif" (fun () -> Trace.Prof.account ~dom:1 100);
  check_bool "disabled profiler stays empty" true (Trace.Prof.stats () = [])

(* ---- datapath accounting (Dpath) ---- *)

let test_dpath_exclusive () =
  Trace.Dpath.reset ();
  Trace.Dpath.enable ();
  Fun.protect ~finally:Trace.quiesce (fun () ->
      Trace.Dpath.measure Trace.Dpath.Netfront ~vcpu_ns:100 (fun () ->
          ignore (Sys.opaque_identity (Bytes.create 64));
          Trace.Dpath.measure Trace.Dpath.Tcp ~vcpu_ns:40 (fun () ->
              ignore (Sys.opaque_identity (Bytes.create 200_000))));
      Trace.Dpath.measure Trace.Dpath.Netfront ~vcpu_ns:100 (fun () -> ());
      let get hop =
        List.find
          (fun (h : Trace.Dpath.hstat) -> h.Trace.Dpath.h_hop = hop)
          (Trace.Dpath.stats ())
      in
      let nf = get Trace.Dpath.Netfront and tcp = get Trace.Dpath.Tcp in
      check_int "netfront pkts" 2 nf.Trace.Dpath.h_pkts;
      check_int "netfront vcpu" 200 nf.Trace.Dpath.h_vcpu_ns;
      check_int "tcp pkts" 1 tcp.Trace.Dpath.h_pkts;
      check_int "tcp vcpu" 40 tcp.Trace.Dpath.h_vcpu_ns;
      (* allocation is exclusive: the inner hop's bytes are subtracted
         from the enclosing hop's self cost *)
      check_bool "inner alloc attributed to tcp" true (tcp.Trace.Dpath.h_alloc_b >= 200_000.);
      check_bool "outer alloc excludes inner" true (nf.Trace.Dpath.h_alloc_b < 50_000.))

let test_dpath_disabled_noop () =
  Trace.Dpath.reset ();
  Trace.Dpath.measure Trace.Dpath.Ip ~vcpu_ns:10 (fun () -> ());
  check_bool "disabled dpath stays empty" true (Trace.Dpath.stats () = [])

(* ---- the plane registry ---- *)

let with_dom_planes f =
  Trace.Metrics.enable ();
  Trace.Prof.enable ();
  Trace.Flight.enable ();
  Fun.protect ~finally:Trace.quiesce f

(* One series per domain in each plane that keys by domain. *)
let record_series doms =
  List.iter
    (fun dom ->
      Trace.Metrics.inc (Trace.Metrics.counter ~dom "requests") 1;
      Trace.Prof.account ~dom 10;
      Trace.Flight.note ~dom ~cat:Trace.Net "breadcrumb")
    doms

let check_series dom ~present =
  let what plane = Printf.sprintf "%s %s dom %d" plane (if present then "keeps" else "drops") dom in
  check_bool (what "metrics") present
    (List.exists (fun s -> s.Trace.Metrics.s_dom = dom) (Trace.Metrics.snapshot ()));
  check_bool (what "prof") present
    (List.exists (fun s -> s.Trace.Prof.p_dom = dom) (Trace.Prof.stats ()));
  check_bool (what "flight") present (Trace.Flight.recent dom <> [])

let test_drop_dom_every_plane () =
  with_dom_planes (fun () ->
      record_series [ 1; 2 ];
      Trace.drop_dom 1;
      check_series 1 ~present:false;
      check_series 2 ~present:true)

let test_destroy_drops_every_plane () =
  with_dom_planes (fun () ->
      let w = make_world () in
      let dom name =
        Xensim.Hypervisor.create_domain w.hv ~name ~mem_mib:64 ~platform:Platform.xen_extent ()
      in
      let a = dom "a" and b = dom "b" in
      let ida = a.Xensim.Domain.id and idb = b.Xensim.Domain.id in
      record_series [ ida; idb ];
      Xensim.Hypervisor.destroy w.hv a;
      check_series ida ~present:false;
      check_series idb ~present:true)

let test_quiesce () =
  Trace.enable ();
  Trace.Metrics.enable ();
  Trace.Prof.enable ();
  Trace.Dpath.enable ();
  Trace.Flight.enable ();
  let c = Trace.counter "test.quiesce" in
  Trace.incr c;
  Trace.emit ~cat:Trace.Net "event";
  Trace.record_span_ns ~cat:Trace.Net "span" 5;
  record_series [ 1 ];
  Trace.Prof.with_frame "netif" (fun () -> Trace.Prof.account ~dom:1 5);
  Trace.Dpath.measure Trace.Dpath.Ip ~vcpu_ns:1 (fun () -> ());
  Trace.Flight.watermark "queue" 3;
  Trace.Flight.trip ~reason:"test" ();
  check_bool "every plane recorded something" true
    (Trace.events () <> []
    && Trace.span_stats () <> []
    && Trace.Metrics.snapshot () <> []
    && Trace.Prof.stats () <> []
    && Trace.Dpath.stats () <> []
    && Trace.Flight.recent 1 <> []
    && Trace.Flight.bundles () <> []);
  Trace.quiesce ();
  check_bool "five planes, registration order" true
    (List.map fst (Trace.planes ()) = [ "trace"; "metrics"; "prof"; "dpath"; "flight" ]);
  check_bool "registry: every plane off" true
    (List.for_all (fun (_, on) -> not on) (Trace.planes ()));
  check_bool "trace off" false (Trace.enabled ());
  check_bool "metrics off" false (Trace.Metrics.enabled ());
  check_bool "prof off" false (Trace.Prof.enabled ());
  check_bool "dpath off" false (Trace.Dpath.enabled ());
  check_bool "flight off" false (Trace.Flight.enabled ());
  check_int "no events" 0 (List.length (Trace.events ()));
  check_int "counter value zeroed" 0 (Trace.counter_value c);
  check_int "no spans" 0 (List.length (Trace.span_stats ()));
  check_int "empty metrics registry" 0 (List.length (Trace.Metrics.snapshot ()));
  check_int "no profile stacks" 0 (List.length (Trace.Prof.stats ()));
  check_int "no dpath cells" 0 (List.length (Trace.Dpath.stats ()));
  check_int "no flight ring" 0 (List.length (Trace.Flight.recent 1));
  check_int "no watermarks" 0 (List.length (Trace.Flight.watermarks ()));
  check_int "no bundles" 0 (List.length (Trace.Flight.bundles ()));
  check_int "no trips" 0 (Trace.Flight.trips ())

let () =
  Alcotest.run "trace"
    [
      ( "trace",
        [
          Alcotest.test_case "ring wraparound" `Quick test_ring_wraparound;
          Alcotest.test_case "span nesting" `Quick test_span_nesting;
          Alcotest.test_case "record_span_ns" `Quick test_record_span_ns;
          Alcotest.test_case "histogram accuracy vs Stats.percentile" `Quick test_hist_accuracy;
          Alcotest.test_case "histogram merge" `Quick test_hist_merge;
          Alcotest.test_case "set_clock re-basing" `Quick test_set_clock_rebase;
          Alcotest.test_case "flow propagation" `Quick test_flow_propagation;
          Alcotest.test_case "counter saturation" `Quick test_counter_saturation;
          Alcotest.test_case "gauges" `Quick test_gauges;
          Alcotest.test_case "metrics registry + exposition" `Quick test_metrics_registry;
          Alcotest.test_case "metrics disabled / detached no-ops" `Quick
            test_metrics_disabled_and_detached;
          Alcotest.test_case "disabled tracing is a no-op" `Quick test_disabled_noop;
          Alcotest.test_case "deterministic jsonl" `Quick test_deterministic_jsonl;
          Alcotest.test_case "appliance boot trace" `Quick test_appliance_boot_trace;
          Alcotest.test_case "profiler folded stacks" `Quick test_prof_folded_stacks;
          Alcotest.test_case "profiler ambient capture via scheduler" `Quick
            test_prof_scheduler_capture;
          Alcotest.test_case "profiler unregister_dom" `Quick test_prof_unregister;
          Alcotest.test_case "profiler disabled no-op" `Quick test_prof_disabled_noop;
          Alcotest.test_case "dpath exclusive attribution" `Quick test_dpath_exclusive;
          Alcotest.test_case "dpath disabled no-op" `Quick test_dpath_disabled_noop;
          Alcotest.test_case "drop_dom clears every plane" `Quick test_drop_dom_every_plane;
          Alcotest.test_case "Hypervisor.destroy clears every plane" `Quick
            test_destroy_drops_every_plane;
          Alcotest.test_case "quiesce leaves every plane off and empty" `Quick test_quiesce;
        ] );
    ]
