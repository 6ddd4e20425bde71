(** A guest's network device: one device with two attachments. Every
    attachment has the same guest-facing state (domain, NIC, buffer
    pool, listener, taps, frame counters) and the same write, delivery
    and teardown semantics; only what lies between the guest and the
    NIC differs.

    The PV attachment ({!connect}) is the Xen split network driver
    (paper §3.4): a frontend in the guest and a backend attached to a
    simulated NIC, connected by two shared rings (TX, RX), grant
    references for payload pages, and event channels for notifications.

    Transmit is zero-copy from the guest's perspective: the frame buffer
    (an I/O page view) is granted to the backend, which maps it and puts it
    on the wire; the grant is revoked when the TX response returns. Receive
    pre-posts granted pages; the backend grant-copies each arriving frame
    into one (netback's GNTTABOP_copy path) and the frontend hands the
    filled view to the listener without further copying. Receive credit
    costs one grant-table entry per slot and no buffer: each credit's id
    is its RX ring index, its grant is deferred
    ({!Xensim.Gnttab.grant_access_deferred}), and the buffer is drawn
    from the pool only when netback copies a frame in.

    The {e direct} attachment ({!connect_direct}) serves the POSIX developer
    targets (paper §5.4): no rings, grants or backend domain — frames go
    straight between the NIC and the guest, with the cost model carrying
    the difference. With [frame_tax] the domain pays the full userspace
    per-frame path plus a syscall (Posix_direct's tuntap read/write);
    without it only the host kernel's per-packet work is charged (the
    in-kernel stack beneath Hostnet's sockets). *)

type t

(** [connect hv ~dom ~backend_dom ~nic ()] wires a frontend in [dom] to a
    backend in [backend_dom] driving [nic]. [rx_slots] bounds posted
    receive credit (default 512, at most 511 posted). Each ring page is
    sized to its slots: both rings get the smallest power of two above
    the posted credit, 512 by default and 128 for 64 credits. *)
val connect :
  Xensim.Hypervisor.t ->
  dom:Xensim.Domain.t ->
  backend_dom:Xensim.Domain.t ->
  nic:Netsim.Nic.t ->
  ?rx_slots:int ->
  unit ->
  t

(** [connect_direct ~dom ~nic ()] attaches [dom] to [nic] without the PV
    split-driver machinery — the host-kernel device path of the POSIX
    targets. The device counts, taps, delivers and tears down exactly as
    a PV one does. [frame_tax] charges the userspace per-frame copy +
    syscall tax (tuntap); off by default. *)
val connect_direct : dom:Xensim.Domain.t -> nic:Netsim.Nic.t -> ?frame_tax:bool -> unit -> t

val mac : t -> string

(** The underlying simulated NIC (e.g. for per-port fault injection at
    the bridge). *)
val nic : t -> Netsim.Nic.t

val mtu : t -> int

(** The frontend's packet-buffer pool; the network stack allocates
    transmit buffers here. *)
val pool : t -> Pktbuf.pool

(** [write t frame] transmits, blocking while the TX ring is full. The
    promise resolves once the request is on the ring (the driver
    pipelines; grant cleanup happens on the TX response). With [?owner]
    the caller transfers its reference on the frame's backing pktbuf:
    the driver holds it until the TX response (PV) or the wire send
    (direct), and the wire itself retains per in-flight delivery — so
    the buffer returns to the pool only after the last consumer. A write
    to a disconnected vif, or one whose vCPU work completes after
    {!disconnect}, drops the frame: the buffer is released, nothing is
    pushed and the promise resolves. *)
val write : ?owner:Pktbuf.t -> t -> Bytestruct.t -> unit Mthread.Promise.t

(** Frames delivered to the listener are views over pool buffers
    released after the listener returns. The buffer is the ambient
    {!Pktbuf.current} for the duration of the callback: a layer that
    defers work over the payload calls [Pktbuf.retain_current] to keep
    the view valid instead of copying. *)
val set_listener : t -> (Bytestruct.t -> unit) -> unit

(** Returned by {!tap}; pass to {!untap} on the same device to detach.
    Handles are numbered per device. *)
type tap_handle

(** [tap t f] observes every frame this device transmits ([Tx], as the
    request reaches the ring, or the wire on a direct attachment) or
    delivers to its listener ([Rx]) — the view from one guest's device,
    shaped like {!Netsim.Bridge.tap}. [link] is this vif's
    {!Netsim.Nic.id}. When the frame is pktbuf-backed the backing buffer
    is the ambient {!Pktbuf.current} during the callback, so observers
    can retain instead of copying. Both attachments fire the taps at
    these points. {!disconnect} detaches every tap; the cost with none
    installed is one null check per frame. *)
val tap : t -> (dir:Netsim.dir -> link:int -> time_ns:int -> Bytestruct.t -> unit) -> tap_handle

(** [untap t h] detaches a tap; unknown handles are ignored. *)
val untap : t -> tap_handle -> unit

(** Whether any tap is installed: the check every delivered frame makes
    before it offers itself to the taps. *)
val tapped : t -> bool

(** Process-wide count of TX doorbells rung, always counted whether or
    not tracing is on. Each frame pushes its request and notifies the
    backend unless it has not yet consumed up to the previous notify. *)
val tx_doorbells : unit -> int

(** Process-wide count of writes that found their TX ring full and
    parked until a TX response freed a slot, always counted. A small
    ring that never parks a writer behaves exactly as a large one. *)
val tx_full_parks : unit -> int

(** [disconnect t] tears the device down: closes its event channels
    (freeing the port entries whose handler closures pin the device),
    revokes outstanding TX grants and posted receive credit, and stops
    accepting frames from the wire. Part of the domain-teardown audit:
    without it every destroyed domain's rings and page pool stay
    reachable from the hypervisor's port table for ever. Writers blocked
    on a full TX ring never resume, as for a destroyed domain. A frame
    whose response was consumed but whose delivery still waits on the
    vCPU is dropped when that work completes, and its credit is not
    reposted. *)
val disconnect : t -> unit

(** Ring sizes in slots, and receive credit currently posted ([0] for
    a direct attachment, which has no rings). *)
val tx_ring_slots : t -> int
val rx_ring_slots : t -> int
val rx_posted : t -> int

val tx_frames : t -> int

(** Frames received for the guest. PV: every frame that found posted
    receive credit, including one that arrives while no listener is set
    (the Rx taps still see it). Direct: every frame that arrives while a
    listener is set. *)
val rx_frames : t -> int

(** Frames dropped on arrival. PV: those that found no posted receive
    credit. Direct: those that arrive while no listener is set; the Rx
    taps never see them. *)
val rx_dropped : t -> int
