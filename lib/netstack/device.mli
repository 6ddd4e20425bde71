(** The unikernel netstack, viewed through the {!Device_sig} contracts.

    [Device.Tcp]/[Device.Udp] are the netstack's own engines ascribed to
    [Device_sig.TCP]/[Device_sig.UDP] — the configure-time modules that
    the application functors are applied to for the
    [Posix_direct] and [Xen_direct] targets. The [with type] equalities
    keep them interchangeable with the underlying {!Tcp}/{!Udp} values,
    so a harness can still reach engine statistics through the concrete
    modules. *)

module Tcp :
  Device_sig.TCP with type t = Tcp.t and type flow = Tcp.flow and type ipaddr = Ipaddr.t

module Udp : Device_sig.UDP with type t = Udp.t and type ipaddr = Ipaddr.t

(** {!Stack.t} as a {!Device_sig.STACK}-shaped bundle. *)
type t = Stack.t

type ipaddr = Ipaddr.t

val tcp : t -> Tcp.t
val udp : t -> Udp.t
val address : t -> Ipaddr.t
