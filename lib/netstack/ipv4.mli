(** IPv4: header construction/validation, next-hop routing through ARP, and
    protocol demultiplexing. No fragmentation — upper layers segment to fit
    the MTU, as the Mirage stack does (paper §3.5.1). *)

type t

type config = {
  address : Ipaddr.t;
  netmask : Ipaddr.t;
  gateway : Ipaddr.t option;
}

val proto_icmp : int
val proto_tcp : int
val proto_udp : int

type handler = src:Ipaddr.t -> dst:Ipaddr.t -> payload:Bytestruct.t -> unit

val create : Engine.Sim.t -> Ethernet.t -> Arp.t -> config -> t

val address : t -> Ipaddr.t
val config : t -> config

(** Reconfigure (DHCP). Also updates the ARP layer's protocol address. *)
val set_config : t -> config -> unit

val set_handler : t -> proto:int -> handler -> unit

(** [output t ~dst ~proto fragments] routes and emits one datagram; the
    fragments must already fit the MTU less the 20-byte header. *)
val output : t -> dst:Ipaddr.t -> proto:int -> Bytestruct.t list -> unit Mthread.Promise.t

(** Datagrams dropped for bad header checksum / malformed header. *)
val checksum_failures : t -> int
