(** The fifth observability plane: wire-level capture.

    A {!t} is a bounded ring of recent frames matching a pcap-style
    filter, fed from taps of one shape: a bridge's ({!attach_bridge},
    over {!Netsim.Bridge.tap}) or a vif's ({!attach_vif}, over
    {!Devices.Netif.tap}). Neither the wire nor the device layer names
    this module, so an appliance that never captures links none of it.
    Frames are held by reference per the pktbuf zero-copy discipline:
    {!record} retains the ambient backing pool buffer and ring eviction
    releases it; only frames with no pool backing are copied, and then
    only up to the snaplen. {!to_pcap} renders a real libpcap file
    (tcpdump/Wireshark-readable); {!flows_json} is its JSONL sidecar
    carrying what classic pcap cannot — direction, link id and the
    {!Trace.Flow} id that [mirage_sim trace waterfall] prints, so a
    capture and a trace cross-reference.

    Captures are a plane of {!Trace}'s registry, ["capture"],
    registered by the program's first {!create}: it is on while any
    capture is live, {!Trace.quiesce} closes every live capture, and a
    {!Trace.Flight.trip} bundle freezes the last few captured frames of
    the implicated flow (matched by the ["port"]/["rport"] fields of the
    trip payload). *)

(** {1 Filters} *)

type filter

(** Matches every frame. *)
val filter_all : filter

(** Parse the capture-filter language:
    [expr := term (or term)*], [term := fact (and fact)*],
    [fact := not fact | ( expr ) | prim], with primitives
    [tcp | udp | icmp | ip | arp], [[src|dst] host A.B.C.D],
    [[src|dst] port N] and [flag syn|ack|fin|rst|psh|urg] — e.g.
    ["tcp and port 80 and flag syn"]. The empty string is
    {!filter_all}. *)
val parse_filter : string -> (filter, string) result

(** [filter_matches f frame] — does [frame] (raw Ethernet) match? *)
val filter_matches : filter -> Bytestruct.t -> bool

(** {1 Capture sessions} *)

type t

(** [create ()] makes a capture ring. [capacity] (default 256) bounds
    retained frames — the ring keeps the most recent matches; [snaplen]
    (default 65535) caps stored bytes per frame; [filter] defaults to
    {!filter_all}. The capture is live, and so in the capture plane,
    until {!close} or {!Trace.quiesce}. *)
val create : ?name:string -> ?capacity:int -> ?snaplen:int -> ?filter:filter -> unit -> t

val name : t -> string

(** Feed the capture from every frame crossing a bridge (both
    directions). {!close} detaches it (taps also die with the bridge). *)
val attach_bridge : t -> Netsim.Bridge.t -> unit

(** Feed the capture from one guest's vif: every frame its device
    transmits ([Tx], as the request reaches the ring) or delivers to its
    listener ([Rx]), with the vif's {!Netsim.Nic.id} as the link — the
    view from one guest, as opposed to a bridge-wide
    {!attach_bridge}. {!close} detaches it, as does
    {!Devices.Netif.disconnect}. *)
val attach_vif : t -> Devices.Netif.t -> unit

(** [record c ~dir ~link ~time_ns frame] — offer one frame to the
    capture (both taps call this). Ownership: the ambient
    {!Pktbuf.current} is retained; with none, the frame bytes are copied
    up to the snaplen. *)
val record : t -> dir:Netsim.dir -> link:int -> time_ns:int -> Bytestruct.t -> unit

(** Frames that matched the filter since creation. *)
val matched : t -> int

(** Frames currently held in the ring. *)
val stored : t -> int

(** Matched frames the bounded ring has overwritten (each eviction
    releases the frame's pktbuf reference). *)
val evicted : t -> int

(** {1 Dumps} *)

(** One ring entry, oldest first, decoded for display. *)
type record_info = {
  r_t : int;  (** virtual timestamp, ns *)
  r_dir : Netsim.dir;
  r_link : int;
  r_flow : int;  (** {!Trace.Flow} id, [-1] when none was ambient *)
  r_len : int;  (** original on-wire length *)
  r_summary : string;  (** tcpdump-style one-liner *)
}

val records : t -> record_info list

(** The ring as a classic libpcap file (little-endian, usec
    timestamps from virtual time, linktype Ethernet). *)
val to_pcap : t -> string

(** JSONL sidecar for {!to_pcap}, one line per packet in file order:
    [{"idx","t_ns","dir","link","flow","len","summary"}]. *)
val flows_json : t -> string

(** Drop all retained frames (releasing their references). *)
val clear : t -> unit

(** Detach from every bridge and vif, drop retained frames, leave the
    capture plane. *)
val close : t -> unit
