(* type u8, code u8, csum u16, id u16, seq u16, data. *)

let type_echo_reply = 0
let type_echo_request = 8

type t = {
  sim : Engine.Sim.t;
  dom : Xensim.Domain.t option;
  ip : Ipv4.t;
  pending : (int * int, int Mthread.Promise.u * int) Hashtbl.t;  (* (id,seq) -> waker, t0 *)
  mutable next_id : int;
  mutable answered : int;
  mutable replies : int;
  mutable checksum_failures : int;
}

let build ~typ ~id ~seq ~payload =
  let h = Bytestruct.create 8 in
  Bytestruct.set_uint8 h 0 typ;
  Bytestruct.set_uint8 h 1 0;
  Bytestruct.BE.set_uint16 h 2 0;
  Bytestruct.BE.set_uint16 h 4 id;
  Bytestruct.BE.set_uint16 h 6 seq;
  let csum = Checksum.add 0 h ~off:0 ~len:8 in
  let csum = Checksum.add csum payload ~off:0 ~len:(Bytestruct.length payload) in
  Bytestruct.BE.set_uint16 h 2 (Checksum.finish csum);
  [ h; payload ]

let handle t ~src ~payload =
  if Bytestruct.length payload < 8 || Checksum.ones_complement payload <> 0 then
    t.checksum_failures <- t.checksum_failures + 1
  else begin
    let typ = Bytestruct.get_uint8 payload 0 in
    let id = Bytestruct.BE.get_uint16 payload 4 in
    let seq = Bytestruct.BE.get_uint16 payload 6 in
    let data = Bytestruct.shift payload 8 in
    if typ = type_echo_request then begin
      t.answered <- t.answered + 1;
      let data = Bytestruct.copy data in
      let emit () =
        Ipv4.output t.ip ~dst:src ~proto:Ipv4.proto_icmp
          (build ~typ:type_echo_reply ~id ~seq ~payload:data)
      in
      match t.dom with
      | None -> Mthread.Promise.async emit
      | Some d ->
        (* type-safe parse + reply construction occupy the vCPU first *)
        Xensim.Domain.charge_k d ~cost:d.Xensim.Domain.platform.Platform.icmp_echo_extra_ns
          (fun () -> Mthread.Promise.async emit)
    end
    else if typ = type_echo_reply then begin
      t.replies <- t.replies + 1;
      match Hashtbl.find_opt t.pending (id, seq) with
      | None -> ()
      | Some (waker, t0) ->
        Hashtbl.remove t.pending (id, seq);
        if Mthread.Promise.wakener_pending waker then
          Mthread.Promise.wakeup waker (Engine.Sim.now t.sim - t0)
    end
  end

let create sim ?dom ip =
  let t =
    {
      sim;
      dom;
      ip;
      pending = Hashtbl.create 16;
      next_id = 1;
      answered = 0;
      replies = 0;
      checksum_failures = 0;
    }
  in
  Ipv4.set_handler ip ~proto:Ipv4.proto_icmp (fun ~src ~dst:_ ~payload -> handle t ~src ~payload);
  t

(* The payload of every echo request: the 56 bytes of ping(8)'s default. *)
let echo_payload_bytes = 56

let ping t ~dst ~seq =
  let open Mthread.Promise in
  let id = t.next_id in
  t.next_id <- (t.next_id + 1) land 0xffff;
  let payload = Bytestruct.create echo_payload_bytes in
  let packet = build ~typ:type_echo_request ~id ~seq ~payload in
  let p, waker = wait () in
  Hashtbl.replace t.pending (id, seq) (waker, Engine.Sim.now t.sim);
  bind (Ipv4.output t.ip ~dst ~proto:Ipv4.proto_icmp packet) (fun () -> p)

let echo_requests_answered t = t.answered
let echo_replies_received t = t.replies
let checksum_failures t = t.checksum_failures
