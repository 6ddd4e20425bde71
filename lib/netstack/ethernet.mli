(** Ethernet framing and protocol demultiplexing over a {!Devices.Netif}.

    Incoming frames are sliced with sub-views (no copying) and dispatched
    by EtherType. Outgoing packets are scatter-gather: the caller passes
    header and payload fragments, assembled into a transmit I/O page
    (paper Figure 4's write path). *)

type t

val ethertype_ipv4 : int
val ethertype_arp : int

(** A handler gets the frame's payload after the Ethernet header: a view
    over a driver page, valid only for the duration of the callback. *)
type handler = payload:Bytestruct.t -> unit

val create : Devices.Netif.t -> t

val mac : t -> Macaddr.t
val mtu : t -> int

(** Register the handler for one EtherType (replacing any previous one). *)
val set_handler : t -> ethertype:int -> handler -> unit

(** [output t ~dst ~ethertype fragments] writes one frame. *)
val output : t -> dst:Macaddr.t -> ethertype:int -> Bytestruct.t list -> unit Mthread.Promise.t
