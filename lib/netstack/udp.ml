(* src u16, dst u16, len u16, csum u16. *)

type callback = src:Ipaddr.t -> src_port:int -> dst_port:int -> payload:Bytestruct.t -> unit

(* Per-bound-port state behind a listener: the introspection surface TCP
   flows get from their flow records. UDP has no connection state, so the
   interesting questions are "what is bound, since when, how busy, how
   recently" — enough to spot a dead consumer or a port being flooded. *)
type sock = {
  s_cb : callback;
  s_bound_ns : int;
  mutable s_rx : int;  (* datagrams delivered to this port's listener *)
  mutable s_tx : int;  (* datagrams sent with this as source port *)
  mutable s_last_ns : int;  (* virtual time of last activity either way *)
}

type t = {
  sim : Engine.Sim.t;
  ip : Ipv4.t;
  listeners : sock Engine.Inttbl.t;
  mutable sent : int;
  mutable received : int;
  mutable checksum_failures : int;
  mutable no_listener : int;
}

let header_bytes = 8

let handle t ~src ~dst ~payload =
  if Bytestruct.length payload < header_bytes then t.checksum_failures <- t.checksum_failures + 1
  else begin
    let src_port = Bytestruct.BE.get_uint16 payload 0 in
    let dst_port = Bytestruct.BE.get_uint16 payload 2 in
    let len = Bytestruct.BE.get_uint16 payload 4 in
    let csum = Bytestruct.BE.get_uint16 payload 6 in
    if len < header_bytes || len > Bytestruct.length payload then
      t.checksum_failures <- t.checksum_failures + 1
    else begin
      let ok =
        csum = 0
        || Checksum.finish
             (Checksum.add (Checksum.pseudo ~src ~dst ~proto:Ipv4.proto_udp ~len) payload ~off:0 ~len)
           = 0
      in
      if not ok then t.checksum_failures <- t.checksum_failures + 1
      else begin
        t.received <- t.received + 1;
        let body = Bytestruct.sub payload header_bytes (len - header_bytes) in
        match Engine.Inttbl.find t.listeners dst_port with
        | s ->
          s.s_rx <- s.s_rx + 1;
          s.s_last_ns <- Engine.Sim.now t.sim;
          s.s_cb ~src ~src_port ~dst_port ~payload:body
        | exception Not_found -> t.no_listener <- t.no_listener + 1
      end
    end
  end

let create sim ?dom ip =
  let t =
    {
      sim;
      ip;
      listeners = Engine.Inttbl.create 8;
      sent = 0;
      received = 0;
      checksum_failures = 0;
      no_listener = 0;
    }
  in
  Ipv4.set_handler ip ~proto:Ipv4.proto_udp (fun ~src ~dst ~payload -> handle t ~src ~dst ~payload);
  (if Trace.Metrics.enabled () then
     match dom with
     | None -> ()
     | Some d ->
       let dom = d.Xensim.Domain.id in
       let reg name read = Trace.Metrics.register_read ~dom ~kind:Trace.Metrics.Counter name read in
       reg "udp_datagrams_sent" (fun () -> t.sent);
       reg "udp_datagrams_received" (fun () -> t.received);
       reg "udp_checksum_failures" (fun () -> t.checksum_failures);
       reg "udp_no_listener" (fun () -> t.no_listener);
       Trace.Metrics.register_read ~dom ~kind:Trace.Metrics.Gauge "udp_bound_ports" (fun () ->
           Engine.Inttbl.length t.listeners));
  t

let listen t ~port f =
  Engine.Inttbl.replace t.listeners port
    { s_cb = f; s_bound_ns = Engine.Sim.now t.sim; s_rx = 0; s_tx = 0; s_last_ns = Engine.Sim.now t.sim }

let unlisten t ~port = Engine.Inttbl.remove t.listeners port

let sendto t ~src_port ~dst ~dst_port payload =
  let len = header_bytes + Bytestruct.length payload in
  let h = Bytestruct.create header_bytes in
  Bytestruct.BE.set_uint16 h 0 src_port;
  Bytestruct.BE.set_uint16 h 2 dst_port;
  Bytestruct.BE.set_uint16 h 4 len;
  Bytestruct.BE.set_uint16 h 6 0;
  let csum = Checksum.pseudo ~src:(Ipv4.address t.ip) ~dst ~proto:Ipv4.proto_udp ~len in
  let csum = Checksum.add csum h ~off:0 ~len:header_bytes in
  let csum = Checksum.add csum payload ~off:0 ~len:(len - header_bytes) in
  let csum = Checksum.finish csum in
  Bytestruct.BE.set_uint16 h 6 (if csum = 0 then 0xffff else csum);
  t.sent <- t.sent + 1;
  (match Engine.Inttbl.find t.listeners src_port with
  | s ->
    s.s_tx <- s.s_tx + 1;
    s.s_last_ns <- Engine.Sim.now t.sim
  | exception Not_found -> ());
  Ipv4.output t.ip ~dst ~proto:Ipv4.proto_udp [ h; payload ]

let datagrams_sent t = t.sent
let checksum_failures t = t.checksum_failures
let no_listener t = t.no_listener

(* ---------- socket-table introspection (parity with Tcp.sockets) ---------- *)

type sock_info = {
  si_local_port : int;
  si_rx_datagrams : int;
  si_tx_datagrams : int;
  si_age_ns : int;
  si_idle_ns : int;
}

let sockets t =
  let now = Engine.Sim.now t.sim in
  Engine.Inttbl.fold
    (fun port s acc ->
      {
        si_local_port = port;
        si_rx_datagrams = s.s_rx;
        si_tx_datagrams = s.s_tx;
        si_age_ns = now - s.s_bound_ns;
        si_idle_ns = now - s.s_last_ns;
      }
      :: acc)
    t.listeners []
  |> List.sort (fun a b -> compare a.si_local_port b.si_local_port)
