let ethertype_ipv4 = 0x0800
let ethertype_arp = 0x0806
let header_bytes = 14

type handler = payload:Bytestruct.t -> unit

type t = {
  netif : Devices.Netif.t;
  handlers : handler Engine.Inttbl.t;
}

let handle t frame =
  if Bytestruct.length frame >= header_bytes then begin
    let ethertype = Bytestruct.BE.get_uint16 frame 12 in
    match Engine.Inttbl.find t.handlers ethertype with
    | f -> f ~payload:(Bytestruct.shift frame header_bytes)
    | exception Not_found -> ()
  end

let create netif =
  let t = { netif; handlers = Engine.Inttbl.create 4 } in
  Devices.Netif.set_listener netif (fun frame -> handle t frame);
  t

let mac t = Macaddr.of_bytes (Devices.Netif.mac t.netif)
let mtu t = Devices.Netif.mtu t.netif

let set_handler t ~ethertype f = Engine.Inttbl.replace t.handlers ethertype f

let output t ~dst ~ethertype fragments =
  let payload_len = Bytestruct.lenv fragments in
  if payload_len > Devices.Netif.mtu t.netif then
    invalid_arg "Ethernet.output: payload exceeds MTU";
  (* Assemble header + fragments into a pooled transmit buffer, and hand
     the driver ownership: the buffer returns to the pool on the TX
     response once the wire no longer references it — never while the
     frame is still in flight on the simulated link. *)
  let pb = Pktbuf.alloc (Devices.Netif.pool t.netif) in
  let frame = Pktbuf.view pb ~off:0 ~len:(header_bytes + payload_len) in
  Macaddr.set frame 0 dst;
  Macaddr.set frame 6 (mac t);
  Bytestruct.BE.set_uint16 frame 12 ethertype;
  let _ =
    List.fold_left
      (fun off frag ->
        Bytestruct.blit frag 0 frame off (Bytestruct.length frag);
        off + Bytestruct.length frag)
      header_bytes fragments
  in
  Devices.Netif.write ~owner:pb t.netif frame
