(** Xen event channels: the asynchronous notification primitive connecting
    frontend and backend drivers (paper §3.4).

    An interdomain channel is a pair of ports. [notify] on one port raises
    a (level-triggered) pending event on the peer; a registered handler runs
    after the event-delivery latency. *)

type t
type port = int

exception Invalid_port of port

val create : sim:Engine.Sim.t -> stats:Xstats.t -> t

(** [alloc_unbound t ~owner] reserves a half-open port for [owner] (a domain
    id), to be connected by a later {!bind_interdomain} from the peer. *)
val alloc_unbound : t -> owner:int -> port

(** [bind_interdomain t ~local ~remote_port] allocates a local port and
    connects it to [remote_port]. @raise Invalid_port if already bound. *)
val bind_interdomain : t -> local:int -> remote_port:port -> port

(** Register the callback run when an event lands on [port]. *)
val set_handler : t -> port -> (unit -> unit) -> unit

(** Raise an event on the peer of [port]; costs one hypercall's worth of
    latency before delivery. *)
val notify : t -> port -> unit

(** Close both halves of the channel and free their port table entries —
    including the registered handlers, so device state captured by a
    handler closure becomes collectable. Idempotent: closing an unknown or
    already-closed port is a no-op. Any in-flight delivery for the port is
    dropped. *)
val close : t -> port -> unit

val owner : t -> port -> int
val peer : t -> port -> port option
