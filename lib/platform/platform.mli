(** Calibrated cost models for the execution environments compared in the
    paper's evaluation (§4.1): [linux-native], [linux-pv], [xen-direct] with
    malloc or extent allocators, and MiniOS (the C libOS baseline of §4.2).

    The paper measures real hardware; this reproduction runs inside a
    discrete-event simulator, so each environment is described by the
    structural costs that drive the paper's comparisons: user/kernel
    crossings, hypercalls, data copies, GC scan behaviour, and scheduler
    wakeup latency. Constants are calibrated to the magnitudes reported in
    the paper and the Xen literature; the reproduction target is the shape
    of each figure, not its absolute values. *)

(** How the guest obtains heap memory (paper §3.2, Figure 7a). *)
type alloc_model =
  | Malloc  (** page-table-tracked scattered chunks, as a userspace GC uses *)
  | Extent  (** contiguous 2 MB superpage extents (the Mirage runtime) *)

type t = {
  name : string;
  virtualized : bool;  (** runs as a Xen PV guest *)
  syscall_ns : int;
      (** one user/kernel crossing; 0 for single-address-space unikernels *)
  hypercall_ns : int;  (** one guest-to-hypervisor transition *)
  userspace_copy : bool;
      (** conventional OS: I/O data crosses kernel/userspace by copy
          (paper §3.4.1 — unikernels have no userspace, hence no copy) *)
  copy_ns_per_byte : float;  (** memcpy throughput term *)
  per_packet_ns : int;  (** fixed driver + stack demux cost per packet *)
  alloc_model : alloc_model;
  gc_scan_factor : float;
      (** relative GC scan/compaction cost; < 1 for the contiguous
          extent-based heap of Figure 2 *)
  timer_slack_ns : int;  (** deterministic scheduler wakeup latency *)
  timer_jitter_ns : int;  (** magnitude of random additional wakeup jitter *)
  app_factor : float;
      (** multiplier on application-level compute (interpreter/JVM tax) *)
  io_sched_penalty_ns : int;
      (** extra per-I/O scheduling cost; models the MiniOS select(2) /
          netfront interaction the paper blames for poor NSD-on-MiniOS
          performance (§4.2) *)
  tcp_tx_extra_ns : int;
      (** TCP transmit-side per-segment processing beyond the generic
          driver cost: header preparation, software checksum (offload is
          disabled in §4.1.3), segmentation. Calibrated so the Figure 8
          throughput ordering reproduces: OCaml's boxed 32-bit arithmetic
          makes the Mirage transmit path dearer than C, while its receive
          path is cheaper (no userspace copy). *)
  tcp_rx_extra_ns : int;  (** TCP receive-side per-segment twin *)
  tcp_ack_extra_ns : int;  (** processing a pure (payload-free) ACK *)
  icmp_echo_extra_ns : int;
      (** answering an ICMP echo beyond the driver path: Linux's optimised
          in-kernel assembly vs. Mirage's type-safe OCaml parse — the 4-10%
          flood-ping penalty of §4.1.3 *)
}

(** Bare-metal Linux process. *)
val linux_native : t

(** Linux as a Xen paravirtual guest — the conventional cloud appliance. *)
val linux_pv : t

(** Mirage unikernel with the malloc-style allocator. *)
val xen_malloc : t

(** Mirage unikernel with the extent (superpage) allocator — the default. *)
val xen_extent : t

(** C libOS (MiniOS + newlib + lwIP), -O build. *)
val minios_o1 : t

(** C libOS, -O3 build. *)
val minios_o3 : t

(** {1 Cost helpers} — all return nanoseconds of virtual time. *)

(** Cost of [n] user/kernel crossings (0 on unikernels). *)
val syscall_cost : t -> int -> int

(** Cost of moving [bytes] through the environment's receive path:
    per-packet fixed cost, plus a kernel-to-userspace copy when the
    environment has a userspace. *)
val rx_cost : t -> bytes_len:int -> int

(** Transmit-path twin of {!rx_cost}. *)
val tx_cost : t -> bytes_len:int -> int

(** Pure memcpy of [bytes_len] bytes. *)
val copy_cost : t -> bytes_len:int -> int

