(** Physical-network substrate: NICs attached to a learning-switch bridge
    through links with bandwidth, propagation latency, loss — and, for the
    chaos experiments, a composable per-link fault-injection layer.

    This stands in for the gigabit segment + Xen bridge of the paper's
    testbed. Frames are raw Ethernet (destination MAC in bytes 0-5, source
    in 6-11). Serialisation delay models link bandwidth: a NIC's transmit
    path is busy for [8·len/bandwidth] per frame, which is what caps iperf
    throughput in the Figure 8 reproduction.

    Every stochastic fault draws from a PRNG split from the simulator seed,
    so any fault schedule replays bit-for-bit: same seed, same program →
    the same frames dropped, corrupted, delayed and duplicated at the same
    virtual times. *)

(** Which side of the wire a tapped frame was observed on: [Tx] as it
    leaves the sending NIC (before the fault layer — frames the wire then
    drops are still observed leaving, like a capture on the sending
    host), [Rx] as it is delivered to a receiving NIC (post-fault:
    corruption, duplicates and reordering are visible, and flooded frames
    produce one [Rx] observation per receiving port). *)
type dir = Tx | Rx

(** Returned by {!Bridge.tap}; pass to {!Bridge.untap} to detach. *)
type tap_handle

(** Per-link fault model. All components compose; {!none} disables every
    one and draws nothing from the PRNG, leaving fault-free runs
    byte-identical to a build without this layer. *)
module Faults : sig
  (** Two-state Markov loss channel (Gilbert–Elliott). The chain takes one
      step ([p_good_bad] / [p_bad_good]) per [slot_ns] of link time — at
      least one per frame sent — then the frame is dropped with the state's
      loss probability. Evolving the chain in time rather than per frame
      observed means a channel stuck in Bad recovers across idle gaps: a
      sender retransmitting on a backed-off RTO sees a fresh channel, not
      the same burst frozen in amber. The multi-step state is sampled in
      closed form with a single PRNG draw, so cost is O(1) per frame. *)
  type gilbert_elliott = {
    p_good_bad : float;  (** P(Good → Bad) per slot *)
    p_bad_good : float;  (** P(Bad → Good) per slot *)
    loss_good : float;  (** drop probability in Good *)
    loss_bad : float;  (** drop probability in Bad *)
    slot_ns : int;  (** chain step duration (a "packet slot") *)
  }

  (** [burst_loss ~avg_loss ~burst_len] derives Gilbert–Elliott
      parameters with stationary loss rate [avg_loss], mean burst length
      [burst_len] slots of 100 µs, [loss_bad = 1] and [loss_good = 0]. *)
  val burst_loss : avg_loss:float -> burst_len:int -> gilbert_elliott

  type t

  val none : t

  (** Compose a fault schedule. All components default to off.
      - [ge]: bursty loss channel (see {!gilbert_elliott}).
      - [reorder]: [(p, extra_ns)] — with probability [p] a frame is held
        back a uniform extra delay in [1, extra_ns], letting later frames
        overtake it.
      - [duplicate]: probability a frame is delivered twice (the copy
        trails by up to 50 µs).
      - [corrupt]: probability of a single-bit flip inside the IP packet
        body (past the ethernet + IPv4 headers — the errors that evade the
        ethernet FCS and that the transport checksum must catch; non-IPv4
        frames are never corrupted).
      - [jitter_ns]: uniform extra latency in [0, jitter_ns) per frame.
      - [flap]: [(first_down_at_ns, down_ns, period_ns)] — from
        [first_down_at_ns] on, the link is dead for [down_ns] out of every
        [period_ns] (frames transmitted while down vanish).
      - [drop_when]: scripted drop predicate, called per frame with the
        virtual time and this NIC's 0-based frame index — the deterministic
        scalpel the unit tests use to kill one precise segment. *)
  val make :
    ?ge:gilbert_elliott ->
    ?reorder:float * int ->
    ?duplicate:float ->
    ?corrupt:float ->
    ?jitter_ns:int ->
    ?flap:int * int * int ->
    ?drop_when:(now_ns:int -> nth:int -> Bytestruct.t -> bool) ->
    unit ->
    t
end

module Nic : sig
  type t

  (** Six-byte MAC address of this NIC. *)
  val mac : t -> string

  (** Bridge-local link id (0, 1, 2… in attachment order), stable for the
      port's lifetime — the [link] value taps and captures report. *)
  val id : t -> int

  (** [send t frame] queues a frame for transmission. The wire is
      zero-copy: the frame view is delivered as-is, so the sender must
      not mutate the buffer until delivery. With [?owner], the backing
      pktbuf is retained per scheduled delivery (duplication schedules
      two) and released after each, and receivers see it as the ambient
      {!Pktbuf.current} during delivery — pool recycling waits for the
      wire. Without [?owner] the caller simply must not reuse the buffer
      (every in-tree raw sender builds a fresh frame per send). The one
      fault that writes — corruption — copies the frame first, so even
      a corrupted delivery never scribbles on the sender's storage. *)
  val send : ?owner:Pktbuf.t -> t -> Bytestruct.t -> unit

  (** Install the receive callback (frames destined to this NIC, broadcast,
      or flooded by the bridge). The frame is only guaranteed valid for
      the duration of the callback: retain the ambient pktbuf
      ([Pktbuf.retain_current]) or copy to keep it longer. *)
  val set_rx : t -> (Bytestruct.t -> unit) -> unit

  val frames_sent : t -> int
  val frames_received : t -> int
  val bytes_sent : t -> int
end

(** Counts of injected faults, bridge-wide (all links summed). *)
type fault_counts = {
  fc_burst_dropped : int;
  fc_flap_dropped : int;
  fc_script_dropped : int;
  fc_corrupted : int;
  fc_duplicated : int;
  fc_reordered : int;
}

module Bridge : sig
  type t

  (** [static_fdb] (default false) pre-programs each port's MAC into the
      forwarding table at {!new_nic} time, like static fdb entries on a
      Xen vif: a 10⁴-port boot storm then never floods to learn
      addresses. Off by default — the learning-switch behaviour of every
      existing scenario is untouched. *)
  val create : ?static_fdb:bool -> Engine.Sim.t -> t

  (** [new_nic t ~mac] attaches a NIC. Defaults: 1 Gb/s, 30 µs propagation
      latency, no loss, no faults. *)
  val new_nic :
    t ->
    ?bandwidth_bps:int ->
    ?latency_ns:int ->
    mac:string ->
    unit ->
    Nic.t

  (** [set_loss t nic p] sets a link's uniform per-frame drop probability
      ([0] when the NIC is attached), also mid-run; it is kept distinct
      from {!Faults} for the simple tests. *)
  val set_loss : t -> Nic.t -> float -> unit

  (** [detach t nic] unplugs a port: the NIC stops sending and receiving,
      its learned MAC entries are flushed, and it leaves the flood set —
      the toolstack tearing down a destroyed domain's vif. Idempotent. *)
  val detach : t -> Nic.t -> unit

  (** [set_faults t nic f] installs a fault schedule on a link (replacing
      any previous one) and re-seeds the link's fault PRNG by splitting the
      bridge PRNG, so each installation starts a fresh deterministic
      stream. [Faults.none] restores a clean link. *)
  val set_faults : t -> Nic.t -> Faults.t -> unit

  val forwarded : t -> int
  val flooded : t -> int

  (** All drops: uniform loss + every dropping fault. *)
  val dropped : t -> int

  val fault_counts : t -> fault_counts

  (** [tap t f] observes every frame traversing the bridge (pcap-style):
      once with [dir = Tx] as it leaves the sending NIC — stamped with
      the virtual time serialisation begins, before the fault layer — and
      once with [dir = Rx] per NIC it is delivered to. [link] is the
      observing port's {!Nic.id}. When the frame is pktbuf-backed the
      backing buffer is the ambient {!Pktbuf.current} during the
      callback, so observers can retain instead of copying. Returns a
      handle for {!untap}. With no taps installed the per-frame cost is
      one null check. *)
  val tap : t -> (dir:dir -> link:int -> time_ns:int -> Bytestruct.t -> unit) -> tap_handle

  (** [untap t h] detaches a tap; unknown handles are ignored (clean
      observer teardown is idempotent). *)
  val untap : t -> tap_handle -> unit

  (** An mDNS-like service directory kept on the switch: appliances that
      expose an endpoint advertise [(name, ip, port)] at boot, and the
      monitor appliance discovers its scrape targets here. Re-advertising
      a name replaces the entry. *)
  val advertise : t -> name:string -> ip:string -> port:int -> unit

  (** [withdraw t ~name] removes a directory entry. Appliance shutdown
      calls this so a destroyed exporter cannot linger as a scrape target
      (the stale-series → rate-0 path would otherwise mask its death). *)
  val withdraw : t -> name:string -> unit

  (** Advertised services, oldest first (deterministic for a
      deterministic boot sequence). *)
  val services : t -> (string * string * int) list
end

(** [mac_of_int i] derives a locally-administered unicast MAC from an
    integer — handy for generating fleets of NICs. *)
val mac_of_int : int -> string
