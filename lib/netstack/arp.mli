(** ARP: IPv4-to-MAC resolution with a cache, request retransmission and
    gratuitous announcement. *)

type t

exception Resolution_failed of Ipaddr.t

val create : Engine.Sim.t -> Ethernet.t -> ip:Ipaddr.t -> t

(** Change the protocol address (after DHCP), announcing gratuitously. *)
val set_ip : t -> Ipaddr.t -> unit

(** [resolve t ip] returns the MAC, querying the network on a cache miss
    (3 retries, 1 s apart). @raise Resolution_failed (in the promise). *)
val resolve : t -> Ipaddr.t -> Macaddr.t Mthread.Promise.t

(** Peek at the cache without generating traffic. *)
val cached : t -> Ipaddr.t -> Macaddr.t option

(** [add_static t ~ip ~mac] seeds the cache without generating traffic
    (an /etc/ethers-style static entry); also wakes any waiter already
    blocked in {!resolve} for [ip]. *)
val add_static : t -> ip:Ipaddr.t -> mac:Macaddr.t -> unit

(** Broadcast a gratuitous ARP for our address. *)
val announce : t -> unit Mthread.Promise.t

val requests_sent : t -> int
