(* Every metric the benchmark reports, with its unit and how it repeats.

   [Virtual] metrics are virtual-time results and [Count] metrics are
   counts or ratios of work done: both are deterministic for a seed and a
   build, so every repetition must report the same value. [Host] metrics
   are measured on the host's clock or heap and vary run to run; the
   harness reports their median over repetitions. *)

type kind = Virtual | Count | Host

type t = {
  name : string;
  unit_ : string;
  kind : kind;
  bound : float;  (* end-to-end only: the share of the median a change may lose *)
}

let m ?(bound = 0.) kind name unit_ = { name; unit_; kind; bound }

let end_to_end =
  [
    m Virtual "goodput_mbps" "Mb/s" ~bound:0.05;
    m Virtual "ops_per_s" "1/s" ~bound:0.05;
    m Virtual "latency_p50_ms" "ms" ~bound:0.1;
    m Virtual "latency_p99_ms" "ms" ~bound:0.25;
    m Host "host_s" "s" ~bound:0.25;
    m Host "setup_s" "s" ~bound:0.25;
    m Host "peak_heap_mb" "MB" ~bound:0.1;
  ]

(* Reported beside the end-to-end metrics, not gated: the measured
   phase's raw CPU and wall-clock seconds, and the mean time of a
   [Calib] chunk, by which [host_s] and [setup_s] were scaled. *)
let reference = [ m Host "cpu_s" "s"; m Host "wall_s" "s"; m Host "chunk_us" "us" ]

let dpath_hops = List.map Trace.Dpath.hop_name Trace.Dpath.all_hops

(* Hops whose vCPU charge per packet is a fixed constant of the cost
   model (1600 ns per ring slot, nothing for ip and deliver): the same
   on every run, so their vCPU column measures nothing and is left out. *)
let fixed_charge_hops = [ "ring"; "ip"; "deliver" ]

(* Per-layer metrics only the traced repetition produces: the doorbell
   count is a trace counter, and the datapath ledger and the spans are
   recorded only with tracing on. *)
let traced_only name =
  List.mem name [ "netif.tx_doorbells_per_op"; "trace.overhead_pct" ]
  || String.starts_with ~prefix:"dpath." name
  || String.starts_with ~prefix:"span." name

let per_layer =
  [
    m Count "engine.events" "count";
    m Host "engine.host_ns_per_event" "ns";
    m Count "engine.pending_max" "count";
    m Count "gc.alloc_bytes_per_op" "B/op";
    m Count "gc.promoted_bytes_per_op" "B/op";
    m Count "gc.major_collections" "count";
    m Count "mthread.promises_per_op" "1/op";
    m Count "xensim.vcpu_util" "ratio";
    m Count "xensim.vcpu_wait_us_per_slice" "us";
    m Count "xensim.domains_left" "count";
    m Count "netif.rx_dropped" "count";
    m Count "netif.tx_doorbells_per_op" "1/op";
    m Count "netsim.frames_per_op" "1/op";
    m Count "netsim.frames_dropped" "count";
    m Count "netsim.frames_flooded" "count";
    m Count "tcp.segments_per_op" "1/op";
    m Count "tcp.retransmissions" "count";
    m Count "tcp.rto_fires" "count";
    m Count "tcp.ooo_evictions" "count";
    m Count "udp.datagrams_per_op" "1/op";
    m Count "dns.memo_hit_ratio" "ratio";
    m Count "dns.decode_failures" "count";
    m Count "pktbuf.outstanding" "count";
    m Count "pktbuf.arena_kb" "KiB";
    m Count "core.boot_p50_ms" "ms";
    m Count "core.boot_p99_ms" "ms";
  ]
  @ List.concat_map
      (fun h ->
        [ m Count (Printf.sprintf "dpath.%s.pkts" h) "count" ]
        @ (if List.mem h fixed_charge_hops then []
           else [ m Count (Printf.sprintf "dpath.%s.vcpu_ns_per_pkt" h) "ns" ])
        @ [ m Count (Printf.sprintf "dpath.%s.alloc_b_per_pkt" h) "B" ])
      dpath_hops
  @ List.concat_map
      (fun s ->
        [
          m Count (Printf.sprintf "span.%s.self_p50_ms" s) "ms";
          m Count (Printf.sprintf "span.%s.self_p99_ms" s) "ms";
        ])
      Spans.reported
  @ [ m Host "trace.overhead_pct" "%" ]

let find name = List.find (fun x -> x.name = name) (end_to_end @ reference @ per_layer)
