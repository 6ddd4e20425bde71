(* lib/trace: ring wraparound, span nesting, exact event counts, disabled
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

(* ---- event counts ---- *)

(* The per-name counts stay exact however far the ring has wrapped: the
   export's counter lines and the summary's [counters:] section report
   every instant event emitted, and a span is counted in its span line
   only. *)
let test_counts_past_ring_wrap () =
  with_trace ~capacity:4 (fun () ->
      let cat = Trace.User "test" in
      for _ = 1 to 7 do
        Trace.emit ~cat "test.tick"
      done;
      for _ = 1 to 3 do
        Trace.emit ~cat "test.tock"
      done;
      Trace.finish (Trace.span ~cat "test.span");
      check_bool "the ring wrapped" true (Trace.dropped () > 0);
      let want = [ ("test.tick", 7); ("test.tock", 3) ] in
      check Alcotest.(list (pair string int)) "true count per name" want (Trace.counts ());
      let file = Filename.temp_file "trace_counts" ".jsonl" in
      let oc = open_out file in
      Trace.export_jsonl oc;
      close_out oc;
      let lines = String.split_on_char '\n' (In_channel.with_open_text file In_channel.input_all) in
      Sys.remove file;
      check
        Alcotest.(list string)
        "exported counter lines"
        (List.map (fun (n, v) -> Printf.sprintf "{\"counter\":\"%s\",\"value\":%d}" n v) want)
        (List.filter (String.starts_with ~prefix:"{\"counter\"") lines);
      check_int "the span counted once, in its span line" 1
        (List.length
           (List.filter
              (String.starts_with ~prefix:"{\"span\":\"test.span\",\"cat\":\"test\",\"dom\":-1,\"count\":1,")
              lines));
      let rec after = function "counters:" :: rest -> rest | _ :: rest -> after rest | [] -> [] in
      let rec section = function
        | l :: rest when String.starts_with ~prefix:"  " l -> l :: section rest
        | _ -> []
      in
      check
        Alcotest.(list string)
        "summary counters"
        (List.map (fun (n, v) -> Printf.sprintf "  %-34s %12d" n v) want)
        (section (after (String.split_on_char '\n' (Plane_cli.Trace_report.summary_string ()))));
      Trace.reset ();
      check_int "reset zeroes the counts" 0 (List.length (Trace.counts ()));
      Trace.emit ~cat "test.tick";
      Trace.quiesce ();
      check_int "quiesce zeroes the counts" 0 (List.length (Trace.counts ())))

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
  Trace.emit ~cat:Trace.Net "nothing";
  let sp = Trace.span ~dom:7 ~cat:Trace.Net "nothing" in
  Trace.finish sp;
  Trace.record_span_ns ~cat:Trace.Net "nothing" 5;
  check_int "no events" 0 (List.length (Trace.events ()));
  check_int "no drops" 0 (Trace.dropped ());
  check_int "nothing counted" 0 (List.length (Trace.counts ()));
  check_int "no span stats" 0 (List.length (Trace.span_stats ()))

(* ---- JSON-lines export ---- *)

(* Boot two hosts and ping across the bridge — exercises netif spans,
   evtchn notifies, ring pushes and grant copies deterministically. *)
let traced_ping_run ~seed =
  Trace.enable ~capacity:65536 ();
  Trace.reset ();
  let w = create ~seed () in
  let a = host w ~name:"a" ~ip:"10.0.0.1" () in
  let b = host w ~name:"b" ~ip:"10.0.0.2" () in
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
      let w = create () in
      let networked =
        appliance w ~config:(Core.Appliance.dns_appliance ()) ~ip:"10.0.0.53"
          ~main:(fun _ -> P.return 0) ()
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
      check_bool "summary non-empty" true (String.length (Plane_cli.Trace_report.summary_string ()) > 0))

(* ---- causal flow propagation ---- *)

(* A DNS query over the simulated network: the server-side flow (started
   at its backend's netif RX) must carry through evtchn/ring delivery,
   the UDP stack and the DNS handler, and back out the TX path. *)
let test_flow_propagation () =
  Trace.enable ~capacity:65536 ();
  Trace.reset ();
  Fun.protect ~finally:Trace.quiesce (fun () ->
      let w = create () in
      let server = host w ~platform:Platform.xen_extent ~name:"dns" ~ip:"10.0.0.53" () in
      let client = host w ~platform:Platform.linux_native ~name:"resolver" ~ip:"10.0.0.9" () in
      let zone = Dns.Zone.synthesize ~origin:"test.zone" ~entries:100 in
      let _srv =
        Core.Apps.Net.Dns.create w.sim ~dom:server.dom ~udp:(Netstack.Stack.udp server.stack)
          ~db:(Dns.Db.of_zone zone)
          ~engine:(Dns.Server.Mirage { memoize = false })
          ()
      in
      let resolver = Core.Apps.Net.Dns.Client.create w.sim (Netstack.Stack.udp client.stack) in
      let reply =
        run w
          (Core.Apps.Net.Dns.Client.query resolver ~server:(Netstack.Stack.address server.stack)
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
      Trace.Prof.account ~dom:2 ~wait_ns:0 10;
      Trace.Prof.with_frame "netif" (fun () ->
          Trace.Prof.account ~dom:1 ~wait_ns:0 100;
          Trace.Prof.with_frame "tcp" (fun () -> Trace.Prof.account ~dom:1 ~wait_ns:7 50));
      (* a second visit interns the same frame node and accumulates *)
      Trace.Prof.with_frame "netif" (fun () -> Trace.Prof.account ~dom:1 ~wait_ns:0 25);
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

(* Frame entry, [wrap] and [account] run inside measured hop regions, so
   on a warm tree they must allocate nothing, or every hop's alloc B/pkt
   would include the instrument. (Constant optional arguments are static
   blocks, so the calls below allocate no [Some] of their own.) *)
let test_prof_bookkeeping_allocates_nothing () =
  with_prof (fun () ->
      let body () =
        Trace.Prof.account ~dom:1 ~wait_ns:2 3;
        Trace.Prof.with_frame "tcp" (fun () -> Trace.Prof.account ~dom:1 ~wait_ns:0 5)
      in
      let round () =
        Trace.Prof.with_frame "netif" body;
        Trace.Prof.wrap (Trace.Prof.current_node ()) body
      in
      round ();
      let w0 = Gc.minor_words () in
      for _ = 1 to 1000 do
        round ()
      done;
      let words = Gc.minor_words () -. w0 in
      if words > 16. then Alcotest.failf "1000 warm rounds allocated %.0f words" words;
      match find_stat ~dom:1 ~stack:"engine;netif;tcp" with
      | Some s -> check_int "every round counted" 1001 s.Trace.Prof.p_samples
      | None -> Alcotest.fail "no engine;netif;tcp stack")

(* The vCPU chokepoint calls [account] once per charge with arguments
   that change every call; plain labels box nothing. *)
let test_prof_account_allocates_nothing () =
  with_prof (fun () ->
      Trace.Prof.account ~dom:1 ~wait_ns:0 0;
      Trace.Prof.account ~dom:2 ~wait_ns:0 0;
      let w0 = Gc.minor_words () in
      for i = 1 to 1000 do
        Trace.Prof.account ~dom:(1 + (i land 1)) ~wait_ns:(Sys.opaque_identity i) (2 * i)
      done;
      let words = Gc.minor_words () -. w0 in
      if words <> 0. then Alcotest.failf "1000 account calls allocated %.0f words" words;
      match find_stat ~dom:2 ~stack:"engine" with
      | Some s -> check_int "half the calls on dom 2" 501 s.Trace.Prof.p_samples
      | None -> Alcotest.fail "no engine row for dom 2")

(* Netif TX/RX and every flow-carrying [Sim.at] callback run under
   [Flow.with_flow]/[Flow.wrap] inside measured hop regions: installing
   and restoring the ambient flow allocates nothing, and a raise still
   restores it. *)
let test_flow_with_flow_allocates_nothing () =
  let base = Trace.Flow.current () in
  let seen = ref 0 in
  let body () = seen := !seen + Trace.Flow.current () in
  let round () =
    Trace.Flow.with_flow 7 body;
    Trace.Flow.wrap 9 body
  in
  round ();
  let w0 = Gc.minor_words () in
  for _ = 1 to 1000 do
    round ()
  done;
  let words = Gc.minor_words () -. w0 in
  if words <> 0. then Alcotest.failf "1000 with_flow/wrap rounds allocated %.0f words" words;
  check_int "each body ran under its flow" (1001 * 16) !seen;
  check_int "ambient flow restored" base (Trace.Flow.current ());
  (match Trace.Flow.with_flow 5 (fun () -> raise Exit) with
  | () -> Alcotest.fail "the raise was lost"
  | exception Exit -> ());
  check_int "ambient flow restored after a raise" base (Trace.Flow.current ())

(* The frame stack is ambient: a callback deferred through the scheduler
   chokepoint keeps the stack of the code that scheduled it (same
   capture trick as causal flow ids). *)
let test_prof_scheduler_capture () =
  with_prof (fun () ->
      let sim = Engine.Sim.create () in
      Trace.Prof.with_frame "netif" (fun () ->
          ignore
            (Engine.Sim.schedule sim ~delay:10 (fun () ->
                 Trace.Prof.with_frame "tcp" (fun () -> Trace.Prof.account ~dom:3 ~wait_ns:0 77))));
      Engine.Sim.run sim;
      match find_stat ~dom:3 ~stack:"engine;netif;tcp" with
      | Some s -> check_int "deferred account keeps the stack" 77 s.Trace.Prof.p_run_ns
      | None -> Alcotest.fail "frame stack not captured across Sim.at")

(* A reset while callbacks are pending keeps the frames they captured:
   what they charge afterwards is counted under the same stack. *)
let test_prof_reset_keeps_pending_frames () =
  with_prof (fun () ->
      let sim = Engine.Sim.create () in
      Trace.Prof.with_frame "netif" (fun () ->
          ignore (Engine.Sim.schedule sim ~delay:10 (fun () -> Trace.Prof.account ~dom:4 ~wait_ns:0 33)));
      Trace.Prof.reset ();
      Engine.Sim.run sim;
      check_int "rows" 1 (List.length (Trace.Prof.stats ()));
      check_bool "charged under its frame" true (find_stat ~dom:4 ~stack:"engine;netif" <> None))

(* The profile is an exact attribution of vCPU time on a real run: reset
   it with requests in flight, and every domain's run and wait ns summed
   over the frames equal what the engine charged it since the reset. *)
let test_prof_exact_on_real_run () =
  with_prof (fun () ->
      let w = create () in
      let s = host w ~name:"server" ~ip:"10.0.0.2" () in
      let tcp = Netstack.Stack.tcp (host w ~name:"client" ~ip:"10.0.0.9" ()).stack in
      ignore
        (Core.Apps.Net.Http.create w.sim ~dom:s.dom ~tcp:(Netstack.Stack.tcp s.stack) ~port:80
           (fun _ -> P.return (Uhttp.Http_wire.response ~status:200 (String.make 8192 'x'))));
      let get _ =
        let dst = Netstack.Stack.address s.stack in
        P.bind (Core.Apps.Net.Http_client.get_once tcp ~dst ~port:80 "/") (fun _ -> P.return ())
      in
      let engine () =
        List.map
          (fun (v : Engine.Sim.vcpu_totals) -> (v.vt_dom, v.vt_run_ns, v.vt_wait_ns))
          (Engine.Sim.vcpu_totals w.sim)
      in
      let before = ref [] in
      ignore
        (Engine.Sim.schedule w.sim ~delay:(Engine.Sim.us 500) (fun () ->
             check_bool "requests in flight" true (Engine.Sim.pending w.sim > 0);
             before := engine ();
             Trace.Prof.reset ()));
      run w (P.join (List.init 8 get));
      let sum dom =
        List.fold_left (fun (r, w) (d, r', w') -> if d = dom then (r + r', w + w') else (r, w))
          (0, 0)
      in
      let prof =
        List.map
          (fun (p : Trace.Prof.stat) -> (p.p_dom, p.p_run_ns, p.p_wait_ns))
          (Trace.Prof.stats ())
      in
      List.iter
        (fun (dom, _, _) ->
          let r1, w1 = sum dom (engine ()) and r0, w0 = sum dom !before in
          check_bool "ran after the reset" true (r1 > r0);
          check
            Alcotest.(pair int int)
            (Printf.sprintf "dom %d run and wait ns" dom)
            (r1 - r0, w1 - w0) (sum dom prof))
        (engine ()))

let test_prof_unregister () =
  with_prof (fun () ->
      Trace.Prof.with_frame "netif" (fun () ->
          Trace.Prof.account ~dom:1 ~wait_ns:0 10;
          Trace.Prof.account ~dom:2 ~wait_ns:0 20);
      Trace.drop_dom 1;
      check_bool "dom 1 series dropped" true (find_stat ~dom:1 ~stack:"engine;netif" = None);
      match find_stat ~dom:2 ~stack:"engine;netif" with
      | Some s -> check_int "dom 2 series survives" 20 s.Trace.Prof.p_run_ns
      | None -> Alcotest.fail "drop_dom dropped the wrong series")

let test_prof_disabled_noop () =
  Trace.Prof.reset ();
  Trace.Prof.account ~dom:1 ~wait_ns:0 100;
  Trace.Prof.with_frame "netif" (fun () -> Trace.Prof.account ~dom:1 ~wait_ns:0 100);
  check_bool "disabled profiler stays empty" true (Trace.Prof.stats () = [])

(* A hop on a disabled plane runs its body and records nothing. *)
let test_dpath_disabled_noop () =
  Trace.Prof.reset ();
  let ran = ref false in
  Trace.Prof.hop Trace.Prof.Ip ~vcpu_ns:10 (fun () -> ran := true);
  check_bool "hop body runs" true !ran;
  check_bool "disabled hop table stays empty" true
    (Trace.Prof.hop_stats () = [] && Trace.Prof.stats () = [])

(* ---- packet-path frames (Prof.hop) ---- *)

let hop_stat hop =
  List.find_opt (fun (h : Trace.Prof.hop_stat) -> h.h_hop = hop) (Trace.Prof.hop_stats ())

(* A hop is a frame: what is charged inside it lands on its stack. *)
let test_dpath_exclusive () =
  with_prof (fun () ->
      Trace.Prof.hop Trace.Prof.Netfront ~vcpu_ns:100 (fun () ->
          ignore (Sys.opaque_identity (Bytes.create 64));
          Trace.Prof.hop Trace.Prof.Tcp ~vcpu_ns:40 (fun () ->
              Trace.Prof.account ~dom:1 ~wait_ns:0 7;
              ignore (Sys.opaque_identity (Bytes.create 200_000))));
      check_bool "charge inside nested hops lands on their frames" true
        (find_stat ~dom:1 ~stack:"engine;netfront;tcp" <> None);
      Trace.Prof.hop Trace.Prof.Netfront ~vcpu_ns:100 (fun () -> ());
      let nf = Option.get (hop_stat Netfront) and tcp = Option.get (hop_stat Tcp) in
      check_int "netfront pkts" 2 nf.Trace.Prof.h_pkts;
      check_int "netfront vcpu" 200 nf.Trace.Prof.h_vcpu_ns;
      check_int "tcp pkts" 1 tcp.Trace.Prof.h_pkts;
      check_int "tcp vcpu" 40 tcp.Trace.Prof.h_vcpu_ns;
      (* allocation is exclusive: the inner hop's bytes are subtracted
         from the enclosing hop's self cost *)
      check_bool "inner alloc attributed to tcp" true (tcp.Trace.Prof.h_alloc_b >= 200_000.);
      check_bool "outer alloc excludes inner" true (nf.Trace.Prof.h_alloc_b < 50_000.))

(* A region's allocation reading is exact and does not depend on the GC:
   2000 conses (3 words each) and one 8 KiB [Bytes] (allocated straight
   in the major heap: 1025 words plus a header) read the same whether or
   not a minor collection runs inside the region, give or take the
   instrument's own constant residue. *)
let test_dpath_exact_alloc () =
  let known = (2000 * 3 * 8) + (1026 * 8) in
  let region ~collect =
    with_prof (fun () ->
        Trace.Prof.hop Trace.Prof.App ~vcpu_ns:0 (fun () ->
            let rec build n acc = if n = 0 then acc else build (n - 1) (n :: acc) in
            let l = Sys.opaque_identity (build 2000 []) in
            let b = Sys.opaque_identity (Bytes.create 8192) in
            if collect then Gc.minor ();
            ignore (Sys.opaque_identity (l, b)));
        match Trace.Prof.hop_stats () with
        | [ app ] -> int_of_float app.Trace.Prof.h_alloc_b
        | _ -> Alcotest.fail "expected one App row")
  in
  let plain = region ~collect:false and collected = region ~collect:true in
  check_bool (Printf.sprintf "reads %d B for %d B allocated" plain known) true
    (plain >= known && plain <= known + 256);
  check_int "a minor collection inside the region changes nothing" plain collected

(* The DNS server's decode -> memo/lookup -> encode is the App hop: one
   packet per query served, charged the engine's query cost. *)
let test_dpath_dns_app () =
  with_prof (fun () ->
      let w = create () in
      let server = host w ~platform:Platform.xen_extent ~name:"dns" ~ip:"10.0.0.53" () in
      let client = host w ~platform:Platform.linux_native ~name:"resolver" ~ip:"10.0.0.9" () in
      let db = Dns.Db.of_zone (Dns.Zone.synthesize ~origin:"test.zone" ~entries:100) in
      let engine = Dns.Server.Mirage { memoize = true } in
      let srv =
        Core.Apps.Net.Dns.create w.sim ~dom:server.dom ~udp:(Netstack.Stack.udp server.stack) ~db
          ~engine ()
      in
      let resolver = Core.Apps.Net.Dns.Client.create w.sim (Netstack.Stack.udp client.stack) in
      List.iter
        (fun i ->
          let reply =
            run w
              (Core.Apps.Net.Dns.Client.query resolver ~server:(Netstack.Stack.address server.stack)
                 ~qname:(Dns.Dns_name.of_string (Printf.sprintf "host-%d.test.zone" i))
                 ~qtype:Dns.Dns_wire.A ())
          in
          check_bool "query answered" true (reply <> None))
        [ 1; 2; 1; 3 ];
      Engine.Sim.run w.sim;
      let cost memo_hit =
        Dns.Server.query_cost_ns engine ~zone_entries:(Dns.Db.entries db)
          ~platform:Platform.xen_extent ~memo_hit
      in
      match hop_stat App with
      | None -> Alcotest.fail "no App hop"
      | Some app ->
        check_int "App pkts = queries served" (Core.Apps.Net.Dns.queries_served srv)
          app.Trace.Prof.h_pkts;
        check_int "App vCPU = three misses and a hit" ((3 * cost false) + cost true)
          app.Trace.Prof.h_vcpu_ns)

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
      Trace.Prof.account ~dom ~wait_ns:0 10;
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
      let w = create () in
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
  Trace.Flight.enable ();
  Trace.emit ~cat:Trace.Net "event";
  Trace.record_span_ns ~cat:Trace.Net "span" 5;
  record_series [ 1 ];
  Trace.Prof.with_frame "netif" (fun () -> Trace.Prof.account ~dom:1 ~wait_ns:0 5);
  Trace.Prof.hop Trace.Prof.Ip ~vcpu_ns:1 (fun () -> ());
  Trace.Flight.watermark "queue" 3;
  Trace.Flight.trip ~reason:"test" ();
  check_bool "every plane recorded something" true
    (Trace.events () <> []
    && Trace.counts () <> []
    && Trace.span_stats () <> []
    && Trace.Metrics.snapshot () <> []
    && Trace.Prof.stats () <> []
    && Trace.Prof.hop_stats () <> []
    && Trace.Flight.recent 1 <> []
    && Trace.Flight.bundles () <> []);
  Trace.quiesce ();
  check_bool "four planes, registration order" true
    (List.map fst (Trace.planes ()) = [ "trace"; "metrics"; "prof"; "flight" ]);
  check_bool "registry: every plane off" true
    (List.for_all (fun (_, on) -> not on) (Trace.planes ()));
  check_bool "trace off" false (Trace.enabled ());
  check_bool "metrics off" false (Trace.Metrics.enabled ());
  check_bool "prof off" false (Trace.Prof.enabled ());
  check_bool "flight off" false (Trace.Flight.enabled ());
  check_int "no events" 0 (List.length (Trace.events ()));
  check_int "no event counts" 0 (List.length (Trace.counts ()));
  check_int "no spans" 0 (List.length (Trace.span_stats ()));
  check_int "empty metrics registry" 0 (List.length (Trace.Metrics.snapshot ()));
  check_int "no profile stacks" 0 (List.length (Trace.Prof.stats ()));
  check_int "no hop counts" 0 (List.length (Trace.Prof.hop_stats ()));
  check_int "no flight ring" 0 (List.length (Trace.Flight.recent 1));
  check_int "no watermarks" 0 (List.length (Trace.Flight.watermarks ()));
  check_int "no bundles" 0 (List.length (Trace.Flight.bundles ()));
  check_int "no trips" 0 (Trace.Flight.trips ())

(* ---- windowed histograms ---- *)

(* A seeded (time, latency) stream: at each read the window's p50/p99
   must track the exact percentile of exactly the samples in the
   covered slots (the current slot and the 7 before it). *)
let test_window_accuracy () =
  let window_ns = 80_000_000 in
  let slot_ns = window_ns / 8 in
  let w = Trace.Hist.Window.create ~window_ns in
  let prng = Engine.Prng.create ~seed:11 () in
  let now = ref 0 and seen = ref [] and reads = ref 0 in
  for i = 1 to 20_000 do
    now := !now + Engine.Prng.int prng 100_000;
    let v = 1_000_000 + Engine.Prng.int prng 9_000_000 in
    Trace.Hist.Window.record w ~now:!now v;
    seen := (!now, v) :: !seen;
    if i mod 700 = 0 then begin
      incr reads;
      let oldest = (!now / slot_ns) - 7 in
      let covered =
        List.filter_map
          (fun (t, v) -> if t / slot_ns >= oldest then Some (float_of_int v) else None)
          !seen
      in
      List.iter
        (fun p ->
          let exact = Engine.Stats.percentile p covered in
          let approx = Trace.Hist.Window.percentile w ~now:!now p in
          let tol = max 1.0 (0.015 *. Float.abs exact) in
          if Float.abs (approx -. exact) > tol then
            Alcotest.failf "read %d p%.0f: window %.1f vs exact %.1f (tol %.2f)" !reads p approx
              exact tol)
        [ 50.; 99. ]
    end
  done;
  check_int "reads" 28 !reads

(* One sample of 1000 at [t0], read back at [t0 + age]: counted iff the
   read's p100 is the sample. *)
let window_counts ~window_ns ~t0 ~age =
  let w = Trace.Hist.Window.create ~window_ns in
  Trace.Hist.Window.record w ~now:t0 1000;
  Trace.Hist.Window.percentile w ~now:(t0 + age) 100.0 = 1000.0

let test_window_drops_old () =
  List.iter
    (fun window_ns ->
      for t0 = 0 to 2 * window_ns do
        List.iter
          (fun age ->
            if window_counts ~window_ns ~t0 ~age then
              Alcotest.failf "window %d: sample at %d counted at age %d" window_ns t0 age)
          [ window_ns + 1; window_ns + 7; (3 * window_ns / 2) + 1; 5 * window_ns ]
      done)
    [ 64; 67; 800 ]

let test_window_keeps_young () =
  let window_ns = 64 in
  for t0 = 0 to 2 * window_ns do
    for age = 0 to (7 * window_ns / 8) - 1 do
      if not (window_counts ~window_ns ~t0 ~age) then
        Alcotest.failf "sample at %d missed at age %d" t0 age
    done
  done

let test_window_empty_reads_zero () =
  let w = Trace.Hist.Window.create ~window_ns:1_000_000 in
  List.iter
    (fun p -> check (Alcotest.float 0.0) "empty" 0.0 (Trace.Hist.Window.percentile w ~now:0 p))
    [ 0.; 50.; 100. ];
  List.iter (fun v -> Trace.Hist.Window.record w ~now:2_000_000 v) [ 5; 50; 500 ];
  check (Alcotest.float 0.0) "live p100" 500.0 (Trace.Hist.Window.percentile w ~now:2_000_000 100.0);
  List.iter
    (fun p -> check (Alcotest.float 0.0) "aged" 0.0 (Trace.Hist.Window.percentile w ~now:12_000_000 p))
    [ 0.; 50.; 100. ];
  (* the same ring slot again: only the new sample counts *)
  Trace.Hist.Window.record w ~now:12_000_000 7;
  List.iter
    (fun p -> check (Alcotest.float 0.0) "reused" 7.0 (Trace.Hist.Window.percentile w ~now:12_000_000 p))
    [ 0.; 50.; 100. ]

let test_window_rejects_small () =
  List.iter
    (fun window_ns ->
      match Trace.Hist.Window.create ~window_ns with
      | _ -> Alcotest.failf "window_ns %d accepted" window_ns
      | exception Invalid_argument _ -> ())
    [ 7; 1; 0; -5 ];
  ignore (Trace.Hist.Window.create ~window_ns:8)

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
          Alcotest.test_case "event counts exact past ring wrap" `Quick test_counts_past_ring_wrap;
          Alcotest.test_case "metrics registry + exposition" `Quick test_metrics_registry;
          Alcotest.test_case "metrics disabled / detached no-ops" `Quick
            test_metrics_disabled_and_detached;
          Alcotest.test_case "disabled tracing is a no-op" `Quick test_disabled_noop;
          Alcotest.test_case "deterministic jsonl" `Quick test_deterministic_jsonl;
          Alcotest.test_case "appliance boot trace" `Quick test_appliance_boot_trace;
          Alcotest.test_case "profiler folded stacks" `Quick test_prof_folded_stacks;
          Alcotest.test_case "profiler bookkeeping allocates nothing" `Quick
            test_prof_bookkeeping_allocates_nothing;
          Alcotest.test_case "Prof.account allocates nothing" `Quick
            test_prof_account_allocates_nothing;
          Alcotest.test_case "Flow.with_flow allocates nothing" `Quick
            test_flow_with_flow_allocates_nothing;
          Alcotest.test_case "profiler ambient capture via scheduler" `Quick
            test_prof_scheduler_capture;
          Alcotest.test_case "callback scheduled under a frame before reset is counted after it"
            `Quick test_prof_reset_keeps_pending_frames;
          Alcotest.test_case "profile equals the engine's vCPU totals across a reset" `Quick
            test_prof_exact_on_real_run;
          Alcotest.test_case "profiler unregister_dom" `Quick test_prof_unregister;
          Alcotest.test_case "profiler disabled no-op" `Quick test_prof_disabled_noop;
          Alcotest.test_case "dpath disabled no-op" `Quick test_dpath_disabled_noop;
          Alcotest.test_case "dpath exclusive attribution" `Quick test_dpath_exclusive;
          Alcotest.test_case "drop_dom clears every plane" `Quick test_drop_dom_every_plane;
          Alcotest.test_case "Hypervisor.destroy clears every plane" `Quick
            test_destroy_drops_every_plane;
          Alcotest.test_case "quiesce leaves every plane off and empty" `Quick test_quiesce;
          Alcotest.test_case "window accuracy vs Stats.percentile" `Quick test_window_accuracy;
          Alcotest.test_case "window never counts a sample older than window_ns" `Quick
            test_window_drops_old;
          Alcotest.test_case "window always counts a sample younger than 7/8" `Quick
            test_window_keeps_young;
          Alcotest.test_case "empty or aged window reads 0" `Quick test_window_empty_reads_zero;
          Alcotest.test_case "window rejects window_ns below the slot count" `Quick
            test_window_rejects_small;
          Alcotest.test_case "dpath App hop is the DNS answer path" `Quick test_dpath_dns_app;
          Alcotest.test_case "dpath allocation is exact across a minor GC" `Quick
            test_dpath_exact_alloc;
        ] );
    ]
