(** UDP: datagram send/receive with per-port listeners.

    Each bound port carries a little introspection state (datagram counts,
    bind time, last activity) so {!sockets} can answer the same "what is
    bound and how busy is it?" question {!Tcp.sockets} answers for
    connections. When [dom] is given and the metrics plane is on, engine
    totals are exported as pull metrics
    ([udp_datagrams_sent]/[_received], [udp_checksum_failures],
    [udp_no_listener], [udp_bound_ports]). *)

type t

type callback =
  src:Ipaddr.t -> src_port:int -> dst_port:int -> payload:Bytestruct.t -> unit

val create : Engine.Sim.t -> ?dom:Xensim.Domain.t -> Ipv4.t -> t

(** [listen t ~port f] registers [f] for datagrams to [port]; replaces any
    previous listener (resetting that port's introspection counters). *)
val listen : t -> port:int -> callback -> unit

val unlisten : t -> port:int -> unit

(** [sendto t ~src_port ~dst ~dst_port payload]. *)
val sendto :
  t -> src_port:int -> dst:Ipaddr.t -> dst_port:int -> Bytestruct.t -> unit Mthread.Promise.t

val datagrams_sent : t -> int
val checksum_failures : t -> int

(** Datagrams for ports nobody listens on. *)
val no_listener : t -> int

(** {1 Socket-table introspection} *)

(** One bound port. [si_tx_datagrams] counts {!sendto} calls whose source
    port is this bound port (an unbound source port still sends, it just
    is not attributed to a socket row). *)
type sock_info = {
  si_local_port : int;
  si_rx_datagrams : int;  (** delivered to this port's listener *)
  si_tx_datagrams : int;  (** sent with this as source port *)
  si_age_ns : int;  (** virtual time since {!listen} *)
  si_idle_ns : int;  (** virtual time since last send or delivery *)
}

(** All bound ports, sorted by port so output is deterministic. *)
val sockets : t -> sock_info list
