(** Host-kernel sockets for the POSIX developer targets (paper §5.4).

    The simulated netstack plays the role of the host kernel's stack,
    attached to the NIC through a direct (non-PV) {!Devices.Netif}; the
    socket API on top taxes every operation with one syscall plus a
    userspace copy of the bytes crossing the user/kernel boundary
    ([Platform.linux_native] costs). [Hostnet.Device] exposes the result
    through the {!Device_sig} contracts, so the same application functors
    that run on the unikernel netstack run here unchanged — only the
    configure step differs. *)

type t

(** [create sim ~dom ~nic config] brings up the modelled host kernel
    stack on [nic] and returns the socket layer for [dom]. [announce]
    is the stack's ({!Netstack.Stack.create}). *)
val create :
  Engine.Sim.t ->
  dom:Xensim.Domain.t ->
  ?announce:bool ->
  nic:Netsim.Nic.t ->
  Netstack.Stack.ip_config ->
  t Mthread.Promise.t

(** The in-kernel stack beneath the sockets (harness access). *)
val kernel_stack : t -> Netstack.Stack.t

val netif : t -> Devices.Netif.t
val address : t -> Netstack.Ipaddr.t

(** The socket layer under the {!Device_sig} contracts. *)
module Device : sig
  module Tcp : Device_sig.TCP with type t = t and type ipaddr = Netstack.Ipaddr.t
  module Udp : Device_sig.UDP with type t = t and type ipaddr = Netstack.Ipaddr.t

  type nonrec t = t
  type ipaddr = Netstack.Ipaddr.t

  val tcp : t -> Tcp.t
  val udp : t -> Udp.t
  val address : t -> Netstack.Ipaddr.t
end
