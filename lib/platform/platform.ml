type alloc_model = Malloc | Extent

type t = {
  name : string;
  virtualized : bool;
  syscall_ns : int;
  hypercall_ns : int;
  userspace_copy : bool;
  copy_ns_per_byte : float;
  per_packet_ns : int;
  alloc_model : alloc_model;
  gc_scan_factor : float;
  timer_slack_ns : int;
  timer_jitter_ns : int;
  app_factor : float;
  io_sched_penalty_ns : int;
  tcp_tx_extra_ns : int;
  tcp_rx_extra_ns : int;
  tcp_ack_extra_ns : int;
  icmp_echo_extra_ns : int;
}

(* Calibration notes.
   - syscall ~ 100-200 ns on 2012-era x86_64; PV guests pay extra for the
     hypervisor bounce on some paths, folded into a higher figure.
   - hypercall ~ 300-700 ns (Xen 4.x literature); event-channel notification
     costs one hypercall.
   - copy at ~ 0.06 ns/byte corresponds to ~16 GB/s memcpy.
   - timer slack/jitter magnitudes are tuned so Figure 7b reproduces: Mirage
     jitter well under Linux-native, Linux-PV the worst (extra scheduling
     layer), all within the paper's 0-0.2 ms x-axis.
   - gc_scan_factor < 1 for the extent heap reproduces the xen-extent vs
     xen-malloc gap in Figure 7a. *)

let linux_native =
  {
    name = "linux-native";
    virtualized = false;
    syscall_ns = 120;
    hypercall_ns = 0;
    userspace_copy = true;
    copy_ns_per_byte = 0.06;
    per_packet_ns = 2_000;
    alloc_model = Malloc;
    gc_scan_factor = 1.0;
    timer_slack_ns = 8_000;
    timer_jitter_ns = 55_000;
    app_factor = 1.0;
    io_sched_penalty_ns = 0;
    (* Per-segment TCP costs (see .mli). Together with the per-frame
       driver cost and the pure-ACK cost these reproduce Figure 8:
       Linux->Linux ~1.53 Gb/s (receive-bound), Linux->Mirage ~1.74 Gb/s
       (sender-bound), Mirage->Linux ~0.97 Gb/s (transmit-bound). *)
    tcp_tx_extra_ns = 350;
    tcp_rx_extra_ns = 1_250;
    tcp_ack_extra_ns = 500;
    icmp_echo_extra_ns = 1_000;
  }

let linux_pv =
  {
    linux_native with
    name = "linux-pv";
    virtualized = true;
    syscall_ns = 180;
    hypercall_ns = 450;
    per_packet_ns = 2_600;
    timer_slack_ns = 15_000;
    timer_jitter_ns = 95_000;
  }

let xen_extent =
  {
    name = "xen-direct (extent)";
    virtualized = true;
    syscall_ns = 0;
    hypercall_ns = 450;
    userspace_copy = false;
    copy_ns_per_byte = 0.06;
    per_packet_ns = 2_300;
    alloc_model = Extent;
    gc_scan_factor = 0.72;
    timer_slack_ns = 2_000;
    timer_jitter_ns = 12_000;
    app_factor = 1.0;
    io_sched_penalty_ns = 0;
    (* OCaml transmit path: header preparation with boxed int32s and a
       software checksum; receive is cheap (no userspace copy). *)
    tcp_tx_extra_ns = 6_800;
    tcp_rx_extra_ns = 1_500;
    tcp_ack_extra_ns = 500;
    icmp_echo_extra_ns = 3_600;
  }

let xen_malloc = { xen_extent with name = "xen-direct (malloc)"; alloc_model = Malloc; gc_scan_factor = 1.0 }

let minios_o1 =
  {
    xen_extent with
    name = "minios -O";
    alloc_model = Malloc;
    gc_scan_factor = 1.0;
    per_packet_ns = 3_200;
    (* Embedded-libc code paths plus the select(2)/netfront interaction the
       paper reports as the cause of poor NSD-on-MiniOS throughput. *)
    io_sched_penalty_ns = 21_000;
    app_factor = 1.35;
    tcp_tx_extra_ns = 4_000;
    tcp_rx_extra_ns = 4_000;
    tcp_ack_extra_ns = 900;
    icmp_echo_extra_ns = 2_000;
  }

let minios_o3 = { minios_o1 with name = "minios -O3"; io_sched_penalty_ns = 17_000; app_factor = 1.15 }

let syscall_cost t n = n * t.syscall_ns

let copy_cost t ~bytes_len = int_of_float (t.copy_ns_per_byte *. float_of_int bytes_len)

let rx_cost t ~bytes_len =
  let base = t.per_packet_ns + t.io_sched_penalty_ns in
  if t.userspace_copy then base + t.syscall_ns + copy_cost t ~bytes_len else base

let tx_cost t ~bytes_len =
  let base = t.per_packet_ns + t.io_sched_penalty_ns in
  if t.userspace_copy then base + t.syscall_ns + copy_cost t ~bytes_len else base

