(* One repetition of one workload, run in a fresh process: set up (timed
   as [setup_s]), then the measured phase (timed as [host_s]), then every
   end-to-end and per-layer value read from the world and the runtime.
   Both host times are CPU seconds from [Unix.times] at the reference
   speed of [Calib]; the raw CPU and wall seconds of the measured phase
   are reported beside them. A traced
   repetition turns on the trace, profiler and datapath planes and the
   benchmark's spans from the start, and writes the spans as JSONL. *)

type result = {
  ok : bool;
  attempted : int;
  failed : int;
  samples : int;  (* latency samples behind the percentiles *)
  metrics : (string * float) list;
}

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let word_bytes = float_of_int (Sys.word_size / 8)

let run (wl : Workload.t) ~seed ~scale ~spans_file =
  let traced = spans_file <> None in
  if traced then begin
    Trace.enable ();
    Trace.Prof.enable ();
    Trace.Dpath.enable ();
    Spans.on := true
  end;
  Calib.prepare ();
  let c0 = cpu_s () in
  let inst = wl.Workload.setup ~seed ~scale in
  let setup_cpu = cpu_s () -. c0 -. Calib.spent () in
  let w = inst.Workload.world and server = inst.Workload.server in
  if traced then begin
    Trace.Prof.reset ();
    Trace.Dpath.reset ()
  end;
  let vcpu () =
    List.find_opt
      (fun v -> v.Engine.Sim.vt_dom = server.Xensim.Domain.id)
      (Engine.Sim.vcpu_totals w.World.sim)
    |> Option.fold ~none:(0, 0) ~some:(fun v -> (v.Engine.Sim.vt_wait_ns, v.Engine.Sim.vt_slices))
  in
  let bridge = w.World.bridge in
  let frames () = Netsim.Bridge.forwarded bridge + Netsim.Bridge.flooded bridge in
  let c0 = World.counts w in
  let wait0, slices0 = vcpu () and busy0 = server.Xensim.Domain.busy_ns in
  let frames0 = frames () and dropped0 = Netsim.Bridge.dropped bridge in
  let flooded0 = Netsim.Bridge.flooded bridge in
  let doorbells0 = Devices.Netif.tx_doorbells () in
  let promises0 = Mthread.Promise.created_count () and async0 = !World.async_failures in
  let gc0 = Gc.quick_stat () and alloc0 = Gc.allocated_bytes () in
  let sim0 = World.now w in
  let d = World.new_drive () in
  let wall0 = Unix.gettimeofday () and cpu0 = cpu_s () and chunks0 = Calib.spent () in
  let o = inst.Workload.measure d in
  let chunks = Calib.spent () -. chunks0 in
  let cpu = cpu_s () -. cpu0 -. chunks and wall_s = Unix.gettimeofday () -. wall0 -. chunks in
  let speed = Calib.speed () in
  let host_s = cpu *. speed and setup_s = setup_cpu *. speed in
  let alloc = Gc.allocated_bytes () -. alloc0 and gc1 = Gc.quick_stat () in
  let c1 = World.counts w in
  let wait1, slices1 = vcpu () in
  let async_failed = !World.async_failures - async0 in
  let attempted = o.Workload.attempted + async_failed in
  let failed = o.Workload.failed + async_failed in
  let per_op x = float_of_int x /. float_of_int (max 1 attempted) in
  let window_s = Engine.Sim.to_sec (max 1 o.Workload.window_ns) in
  let lat = Stats.Samples.sorted o.Workload.latencies in
  let ms p = float_of_int (Stats.nearest_rank lat p) /. 1e6 in
  let f = float_of_int in
  let e2e =
    [
      ("goodput_mbps", f o.Workload.bytes *. 8. /. window_s /. 1e6);
      ("ops_per_s", f (attempted - failed) /. window_s);
      ("latency_p50_ms", ms 50.);
      ("latency_p99_ms", ms 99.);
      ("host_s", host_s);
      ("cpu_s", cpu);
      ("wall_s", wall_s);
      ("chunk_us", Calib.mean_chunk_s () *. 1e6);
      ("setup_s", setup_s);
      ("peak_heap_mb", f gc1.Gc.top_heap_words *. word_bytes /. 1e6);
    ]
  in
  let layer =
    [
      ("engine.events", f d.World.events);
      ("engine.host_ns_per_event", host_s *. 1e9 /. f (max 1 d.World.events));
      ("engine.pending_max", f d.World.pending_max);
      ("gc.alloc_bytes_per_op", alloc /. f (max 1 attempted));
      ( "gc.promoted_bytes_per_op",
        (gc1.Gc.promoted_words -. gc0.Gc.promoted_words) *. word_bytes /. f (max 1 attempted) );
      ("gc.major_collections", f (gc1.Gc.major_collections - gc0.Gc.major_collections));
      ("mthread.promises_per_op", per_op (Mthread.Promise.created_count () - promises0));
      ( "xensim.vcpu_util",
        f (server.Xensim.Domain.busy_ns - busy0) /. f (max 1 (World.now w - sim0)) );
      ( "xensim.vcpu_wait_us_per_slice",
        f (wait1 - wait0) /. 1e3 /. f (max 1 (slices1 - slices0)) );
      ("xensim.domains_left", f (Xensim.Hypervisor.domain_count w.World.hv));
      ("netif.rx_dropped", f (c1.World.rx_dropped - c0.World.rx_dropped));
      ("netif.tx_doorbells_per_op", per_op (Devices.Netif.tx_doorbells () - doorbells0));
      ("netsim.frames_per_op", per_op (frames () - frames0));
      ("netsim.frames_dropped", f (Netsim.Bridge.dropped bridge - dropped0));
      ("netsim.frames_flooded", f (Netsim.Bridge.flooded bridge - flooded0));
      ("tcp.segments_per_op", per_op (c1.World.segments - c0.World.segments));
      ("tcp.retransmissions", f (c1.World.retransmissions - c0.World.retransmissions));
      ("tcp.rto_fires", f (c1.World.rto_fires - c0.World.rto_fires));
      ("tcp.ooo_evictions", f (c1.World.ooo_evictions - c0.World.ooo_evictions));
      ("udp.datagrams_per_op", per_op (c1.World.datagrams - c0.World.datagrams));
      ("pktbuf.outstanding", f c1.World.outstanding);
      ("pktbuf.arena_kb", f c1.World.arena_bytes /. 1024.);
    ]
  in
  let traced_layer =
    if not traced then []
    else begin
      let hops = Trace.Dpath.stats () in
      List.concat_map
        (fun hop ->
          let name = Trace.Dpath.hop_name hop in
          let pkts, vcpu, alloc =
            match List.find_opt (fun h -> h.Trace.Dpath.h_hop = hop) hops with
            | Some h ->
              let n = f (max 1 h.Trace.Dpath.h_pkts) in
              (f h.Trace.Dpath.h_pkts, f h.Trace.Dpath.h_vcpu_ns /. n, h.Trace.Dpath.h_alloc_b /. n)
            | None -> (0., 0., 0.)
          in
          [ (Printf.sprintf "dpath.%s.pkts" name, pkts) ]
          @ (if List.mem name Metrics.fixed_charge_hops then []
             else [ (Printf.sprintf "dpath.%s.vcpu_ns_per_pkt" name, vcpu) ])
          @ [ (Printf.sprintf "dpath.%s.alloc_b_per_pkt" name, alloc) ])
        Trace.Dpath.all_hops
      @ Spans.metrics ()
    end
  in
  (* workload-specific values, 0 where a workload has none *)
  let specific =
    List.map
      (fun name -> (name, Option.value ~default:0. (List.assoc_opt name o.Workload.layer)))
      [ "dns.memo_hit_ratio"; "dns.decode_failures"; "core.boot_p50_ms"; "core.boot_p99_ms" ]
  in
  Option.iter Spans.write_jsonl spans_file;
  {
    ok = failed = 0 && attempted > 0;
    attempted;
    failed;
    samples = Array.length lat;
    metrics = e2e @ layer @ specific @ traced_layer;
  }

(* The result crosses the process boundary as "@ key value" lines. *)
let print r =
  Printf.printf "@ ok %b\n@ attempted %d\n@ failed %d\n@ samples %d\n" r.ok r.attempted r.failed
    r.samples;
  List.iter (fun (k, v) -> Printf.printf "@ m %s %.17g\n" k v) r.metrics

let parse lines =
  let r = ref { ok = false; attempted = 0; failed = 0; samples = 0; metrics = [] } in
  List.iter
    (fun line ->
      match String.split_on_char ' ' line with
      | [ "@"; "ok"; b ] -> r := { !r with ok = bool_of_string b }
      | [ "@"; "attempted"; n ] -> r := { !r with attempted = int_of_string n }
      | [ "@"; "failed"; n ] -> r := { !r with failed = int_of_string n }
      | [ "@"; "samples"; n ] -> r := { !r with samples = int_of_string n }
      | [ "@"; "m"; k; v ] -> r := { !r with metrics = (k, float_of_string v) :: !r.metrics }
      | _ -> ())
    lines;
  { !r with metrics = List.rev !r.metrics }
