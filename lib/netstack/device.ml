(* Conformance of the unikernel netstack to the Device_sig signatures.
   These are the modules the application functors are applied to for
   the Posix_direct and Xen_direct targets; the ascriptions in the
   mli are the compile-time proof that the netstack implements the
   device contracts. *)

module Tcp = struct
  include Tcp

  type ipaddr = Ipaddr.t

  let ipaddr_to_int = Ipaddr.to_int
end

module Udp = struct
  include Udp

  type ipaddr = Ipaddr.t
end

type t = Stack.t
type ipaddr = Ipaddr.t

let tcp = Stack.tcp
let udp = Stack.udp
let address = Stack.address
