(* Host-kernel sockets, as seen by a POSIX process (paper §5.4's first
   developer step). The application talks BSD sockets; the kernel's own
   stack does the protocol work. We model that by running the simulated
   netstack *beneath* the socket API — it plays the host kernel, attached
   to the NIC through a direct (non-PV) netif whose cost model charges
   only the kernel's per-packet work — and taxing every socket operation
   with the user/kernel boundary costs the paper's Figures 9-12 turn on:
   one syscall plus a userspace copy of the bytes crossing it, both from
   [Platform.linux_native]. *)

let ( >>= ) = Mthread.Promise.bind
let return = Mthread.Promise.return

type t = {
  sim : Engine.Sim.t;
  dom : Xensim.Domain.t;
  netif : Devices.Netif.t;
  stack : Netstack.Stack.t;
}

(* One socket call moving [bytes_len] payload bytes between user and
   kernel space: trap cost + memcpy throughput term. *)
let tax t ~bytes_len =
  let p = t.dom.Xensim.Domain.platform in
  Platform.syscall_cost p 1 + Platform.copy_cost p ~bytes_len

let charge t ~bytes_len =
  Xensim.Domain.charge t.dom ~cost:(tax t ~bytes_len)

let charge_k t ~bytes_len k =
  Xensim.Domain.charge_k t.dom ~cost:(tax t ~bytes_len) k

let create sim ~dom ?announce ~nic config =
  let netif = Devices.Netif.connect_direct ~dom ~nic () in
  Netstack.Stack.create sim ~dom ?announce ~netif config >>= fun stack ->
  return { sim; dom; netif; stack }

let kernel_stack t = t.stack
let netif t = t.netif
let address t = Netstack.Stack.address t.stack

module Device = struct
  module Tcp = struct
    type nonrec t = t
    type flow = { host : t; fl : Netstack.Tcp.flow }
    type ipaddr = Netstack.Ipaddr.t

    let listen h ~port f =
      Netstack.Tcp.listen (Netstack.Stack.tcp h.stack) ~port (fun fl ->
          (* accept(2) before the handler sees the connection *)
          charge h ~bytes_len:0 >>= fun () -> f { host = h; fl })

    let unlisten h ~port = Netstack.Tcp.unlisten (Netstack.Stack.tcp h.stack) ~port

    let connect h ~dst ~dst_port =
      (* connect(2); the kernel then runs the handshake *)
      charge h ~bytes_len:0 >>= fun () ->
      Netstack.Tcp.connect (Netstack.Stack.tcp h.stack) ~dst ~dst_port >>= fun fl ->
      return { host = h; fl }

    let read fl =
      Netstack.Tcp.read fl.fl >>= function
      | None -> charge fl.host ~bytes_len:0 >>= fun () -> return None
      | Some chunk ->
        (* read(2) copies the chunk out of the kernel socket buffer *)
        charge fl.host ~bytes_len:(Bytestruct.length chunk) >>= fun () -> return (Some chunk)

    let write fl buf =
      (* write(2) copies into the kernel socket buffer before the stack
         sees the bytes *)
      charge fl.host ~bytes_len:(Bytestruct.length buf) >>= fun () ->
      Netstack.Tcp.write fl.fl buf

    let close fl = charge fl.host ~bytes_len:0 >>= fun () -> Netstack.Tcp.close fl.fl

    let abort fl =
      charge_k fl.host ~bytes_len:0 (fun () -> ());
      Netstack.Tcp.abort fl.fl

    let remote fl = Netstack.Tcp.remote fl.fl
  end

  module Udp = struct
    type nonrec t = t
    type ipaddr = Netstack.Ipaddr.t

    type callback =
      src:ipaddr -> src_port:int -> dst_port:int -> payload:Bytestruct.t -> unit

    let listen h ~port (f : callback) =
      Netstack.Udp.listen (Netstack.Stack.udp h.stack) ~port
        (fun ~src ~src_port ~dst_port ~payload ->
          (* recvfrom(2): the datagram is copied out of the kernel — the
             copy is real here because delivery is deferred past the
             kernel's buffer (a recycled netif page). *)
          let payload = Bytestruct.copy payload in
          charge_k h ~bytes_len:(Bytestruct.length payload) (fun () ->
              f ~src ~src_port ~dst_port ~payload))

    let unlisten h ~port = Netstack.Udp.unlisten (Netstack.Stack.udp h.stack) ~port

    let sendto h ~src_port ~dst ~dst_port payload =
      (* sendto(2) *)
      charge h ~bytes_len:(Bytestruct.length payload) >>= fun () ->
      Netstack.Udp.sendto (Netstack.Stack.udp h.stack) ~src_port ~dst ~dst_port payload
  end

  type nonrec t = t
  type ipaddr = Netstack.Ipaddr.t

  let tcp h = h
  let udp h = h
  let address = address
end
