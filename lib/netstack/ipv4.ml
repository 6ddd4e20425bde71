let proto_icmp = 1
let proto_tcp = 6
let proto_udp = 17
let header_bytes = 20

type config = { address : Ipaddr.t; netmask : Ipaddr.t; gateway : Ipaddr.t option }

type handler = src:Ipaddr.t -> dst:Ipaddr.t -> payload:Bytestruct.t -> unit

type t = {
  sim : Engine.Sim.t;
  eth : Ethernet.t;
  arp : Arp.t;
  mutable cfg : config;
  handlers : handler Engine.Inttbl.t;
  mutable ident : int;
  mutable checksum_failures : int;
}

let create sim eth arp cfg =
  let t =
    {
      sim;
      eth;
      arp;
      cfg;
      handlers = Engine.Inttbl.create 4;
      ident = 1;
      checksum_failures = 0;
    }
  in
  Ethernet.set_handler eth ~ethertype:Ethernet.ethertype_ipv4 (fun ~payload ->
      if Bytestruct.length payload < header_bytes then
        t.checksum_failures <- t.checksum_failures + 1
      else begin
        let vihl = Bytestruct.get_uint8 payload 0 in
        let ihl = (vihl land 0xf) * 4 in
        let total_len = Bytestruct.BE.get_uint16 payload 2 in
        if
          vihl lsr 4 <> 4
          || ihl < header_bytes
          || total_len > Bytestruct.length payload
          || Checksum.finish (Checksum.add 0 payload ~off:0 ~len:ihl) <> 0
        then t.checksum_failures <- t.checksum_failures + 1
        else begin
          let proto = Bytestruct.get_uint8 payload 9 in
          let src = Ipaddr.get payload 12 in
          let dst = Ipaddr.get payload 16 in
          let body = Bytestruct.sub payload ihl (total_len - ihl) in
          let for_us =
            Ipaddr.equal dst t.cfg.address
            || Ipaddr.equal dst Ipaddr.broadcast
            || Ipaddr.equal t.cfg.address Ipaddr.any (* unconfigured: DHCP listens *)
          in
          if for_us then
            match Engine.Inttbl.find t.handlers proto with
            | f ->
              if Trace.Prof.enabled () then
                Trace.Prof.hop Trace.Prof.Ip ~vcpu_ns:0 (fun () -> f ~src ~dst ~payload:body)
              else f ~src ~dst ~payload:body
            | exception Not_found -> ()
        end
      end);
  t

let address t = t.cfg.address
let config t = t.cfg

let set_config t cfg =
  t.cfg <- cfg;
  Arp.set_ip t.arp cfg.address

let set_handler t ~proto f = Engine.Inttbl.replace t.handlers proto f

let payload_mtu t = Ethernet.mtu t.eth - header_bytes

let build_header t ~dst ~proto ~payload_len =
  let h = Bytestruct.create header_bytes in
  Bytestruct.set_uint8 h 0 0x45;
  Bytestruct.set_uint8 h 1 0;
  Bytestruct.BE.set_uint16 h 2 (header_bytes + payload_len);
  Bytestruct.BE.set_uint16 h 4 t.ident;
  t.ident <- (t.ident + 1) land 0xffff;
  Bytestruct.BE.set_uint16 h 6 0x4000 (* DF *);
  Bytestruct.set_uint8 h 8 64 (* TTL *);
  Bytestruct.set_uint8 h 9 proto;
  Bytestruct.BE.set_uint16 h 10 0;
  Ipaddr.set h 12 t.cfg.address;
  Ipaddr.set h 16 dst;
  Bytestruct.BE.set_uint16 h 10 (Checksum.ones_complement h);
  h

let next_hop t dst =
  match t.cfg.gateway with
  | Some gw when not (Ipaddr.same_subnet ~netmask:t.cfg.netmask t.cfg.address dst) -> gw
  | _ -> dst

let output t ~dst ~proto fragments =
  let open Mthread.Promise in
  let payload_len = Bytestruct.lenv fragments in
  if payload_len > payload_mtu t then invalid_arg "Ipv4.output: payload exceeds MTU";
  let header = build_header t ~dst ~proto ~payload_len in
  if Ipaddr.equal dst Ipaddr.broadcast then
    Ethernet.output t.eth ~dst:Macaddr.broadcast ~ethertype:Ethernet.ethertype_ipv4
      (header :: fragments)
  else
    let hop = next_hop t dst in
    (* A cache hit sends at once, with no settled promise to bind through. *)
    match Arp.cached t.arp hop with
    | Some mac ->
      Ethernet.output t.eth ~dst:mac ~ethertype:Ethernet.ethertype_ipv4 (header :: fragments)
    | None ->
      bind (Arp.resolve t.arp hop) (fun mac ->
          Ethernet.output t.eth ~dst:mac ~ethertype:Ethernet.ethertype_ipv4 (header :: fragments))

let checksum_failures t = t.checksum_failures
