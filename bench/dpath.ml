(* Per-packet datapath cost attribution (the `dpath` figure): a Mirage
   web appliance serving a load generator with the profiler enabled, so
   every receive-path hop — backend ring slot, netfront
   delivery, IP demux, TCP processing, stream delivery, application
   reply — reports its packet count, exclusive vCPU nanoseconds and
   exclusive allocation per packet.

   vCPU time is simulated virtual time, so per-hop ns/pkt depends only
   on the seed and the cost model: the gateable numbers. Allocation is
   real allocation of this binary (`Trace.Prof.allocated_bytes` deltas,
   exact whatever the GC phase) — deterministic for a
   fixed build, snapshotted for reference and gated with a generous
   tolerance. *)

module P = Mthread.Promise
module H = Uhttp.Http_wire

let requests = 200

let run_world () =
  let w = Util.make_world () in
  (* The load generator is CPU-accounted too: an unaccounted host runs
     its whole receive path synchronously inside the IP-demux measure
     (there is no vCPU charge to defer behind), which would fold the
     client's application-side costs into the 'ip' hop and hide what the
     stack itself costs per packet. *)
  let client =
    Util.host w ~platform:Platform.linux_native ~name:"load" ~ip:"10.0.0.9" ()
  in
  let server = Util.host w ~platform:Platform.xen_extent ~name:"mirage-web" ~ip:"10.0.0.80" () in
  ignore
    (Core.Apps.Net.Http.create w.Util.sim ~dom:server.Util.dom
       ~per_request_cost_ns:Baseline.Appliances.mirage_static_cost_ns
       ~tcp:(Netstack.Stack.tcp server.Util.stack) ~port:80 (fun _req ->
         P.return (H.response ~status:200 (String.make 4096 'x'))));
  let counter = ref 0 in
  let result =
    Util.run w
      (Util.Httperf.run w.Util.sim
         (Netstack.Stack.tcp client.Util.stack)
         ~dst:(Netstack.Ipaddr.of_string "10.0.0.80")
         ~port:80 ~rate:500.0 ~sessions:requests
         ~session_timeout_ns:(Engine.Sim.sec 10) ~counter
         ~session:(Util.Httperf.static_session ~path:"/index.html" ~counter) ())
  in
  result.Uhttp.Httperf.replies

let report ~label replies total_alloc promises stats =
  Printf.printf "  [%s] %d HTTP requests served; per-hop exclusive costs:\n" label replies;
  let rows = Plane_cli.Trace_report.hop_rows stats in
  print_string (Plane_cli.Trace_report.hop_table rows);
  List.iter
    (fun (name, pkts, vcpu_ns, alloc_b) ->
      let n = float_of_int pkts in
      let vcpu = float_of_int vcpu_ns /. n and alloc = alloc_b /. n in
      let m suffix = label ^ "/" ^ name ^ "/" ^ suffix in
      Util.emit ~figure:"dpath" ~metric:(m "pkts") ~unit_:"pkts" n;
      Util.emit ~figure:"dpath" ~metric:(m "vcpu-ns-per-pkt") ~unit_:"ns/pkt" vcpu;
      Util.emit ~figure:"dpath" ~metric:(m "alloc-b-per-pkt") ~unit_:"B/pkt" alloc)
    rows;
  Util.emit ~figure:"dpath" ~metric:(label ^ "/replies") ~unit_:"requests" (float_of_int replies);
  (* Whole-run allocation per request: robust to attribution shifts
     between hops (a copy removed from one hop can move the synchronous
     reader continuation's allocation into another), so this is the
     headline number for the zero-copy datapath. *)
  let per_req = total_alloc /. float_of_int (max 1 replies) in
  Printf.printf "  total allocation: %.0f B/request\n" per_req;
  Util.emit ~figure:"dpath" ~metric:(label ^ "/total-alloc-b-per-req") ~unit_:"B/req" per_req;
  (* Stack-hop aggregate (everything below the application): the number
     the pooled zero-copy datapath is gated on. *)
  let stack_b =
    List.fold_left
      (fun acc (h : Trace.Prof.hop_stat) ->
        if h.h_hop = Trace.Prof.App then acc else acc +. h.h_alloc_b)
      0. stats
  in
  let stack_per_req = stack_b /. float_of_int (max 1 replies) in
  Printf.printf "  stack-hop allocation: %.0f B/request\n" stack_per_req;
  Util.emit ~figure:"dpath" ~metric:(label ^ "/stack-alloc-b-per-req") ~unit_:"B/req" stack_per_req;
  (* Promises created per request, both ends: the thread fabric the
     packet path still builds. Deterministic, so gated. *)
  let promises_per_req = float_of_int promises /. float_of_int (max 1 replies) in
  Printf.printf "  promises: %.1f per request\n" promises_per_req;
  Util.emit ~figure:"dpath" ~metric:(label ^ "/promises-per-req") ~unit_:"1/req" promises_per_req

let run () =
  Util.header "Datapath cost attribution (per-packet, per-hop)";
  let was_on = Trace.Prof.enabled () in
  if not was_on then Trace.Prof.enable ();
  Trace.Prof.reset ();
  Mthread.Promise.reset_counters ();
  let a0 = Trace.Prof.allocated_bytes () in
  let replies = run_world () in
  let total_alloc = Trace.Prof.allocated_bytes () -. a0 in
  let promises = Mthread.Promise.created_count () in
  (* The "base" label keeps the metric names of the committed snapshot. *)
  report ~label:"base" replies total_alloc promises (Trace.Prof.hop_stats ());
  (* Under `--profile` the plane was already on: keep the tables so the
     end-of-run profile dump includes them. Standalone, leave no residue. *)
  if not was_on then begin
    Trace.Prof.reset ();
    Trace.Prof.disable ()
  end;
  Printf.printf
    "  (exclusive costs: nested hops subtract — e.g. 'deliver' is inside 'tcp', which is\n";
  Printf.printf "   deferred past 'netfront'; alloc is real GC bytes of this binary)\n"
