(* Wire format (28 bytes): htype u16, ptype u16, hlen u8, plen u8, op u16,
   sha 6, spa 4, tha 6, tpa 4. *)

exception Resolution_failed of Ipaddr.t

let op_request = 1
let op_reply = 2

type t = {
  sim : Engine.Sim.t;
  eth : Ethernet.t;
  mutable ip : Ipaddr.t;
  (* Both keyed by [Ipaddr.to_int]. *)
  cache : Macaddr.t Engine.Inttbl.t;
  waiting : Macaddr.t Mthread.Promise.u list ref Engine.Inttbl.t;
  mutable requests_sent : int;
}

let build_packet ~op ~sha ~spa ~tha ~tpa =
  let b = Bytestruct.create 28 in
  Bytestruct.BE.set_uint16 b 0 1 (* Ethernet *);
  Bytestruct.BE.set_uint16 b 2 Ethernet.ethertype_ipv4;
  Bytestruct.set_uint8 b 4 6;
  Bytestruct.set_uint8 b 5 4;
  Bytestruct.BE.set_uint16 b 6 op;
  Macaddr.set b 8 sha;
  Ipaddr.set b 14 spa;
  Macaddr.set b 18 tha;
  Ipaddr.set b 24 tpa;
  b

let output t ~dst packet = Ethernet.output t.eth ~dst ~ethertype:Ethernet.ethertype_arp [ packet ]

let learn t ip mac =
  let key = Ipaddr.to_int ip in
  Engine.Inttbl.replace t.cache key mac;
  match Engine.Inttbl.find_opt t.waiting key with
  | None -> ()
  | Some waiters ->
    Engine.Inttbl.remove t.waiting key;
    List.iter
      (fun u -> if Mthread.Promise.wakener_pending u then Mthread.Promise.wakeup u mac)
      !waiters

let handle t ~payload =
  if Bytestruct.length payload >= 28 then begin
    let op = Bytestruct.BE.get_uint16 payload 6 in
    let sha = Macaddr.get payload 8 in
    let spa = Ipaddr.get payload 14 in
    let tpa = Ipaddr.get payload 24 in
    if not (Ipaddr.equal spa Ipaddr.any) then learn t spa sha;
    if op = op_request && Ipaddr.equal tpa t.ip then begin
      let reply =
        build_packet ~op:op_reply ~sha:(Ethernet.mac t.eth) ~spa:t.ip ~tha:sha ~tpa:spa
      in
      Mthread.Promise.async (fun () -> output t ~dst:sha reply)
    end
  end

let create sim eth ~ip =
  let t =
    {
      sim;
      eth;
      ip;
      cache = Engine.Inttbl.create 8;
      waiting = Engine.Inttbl.create 4;
      requests_sent = 0;
    }
  in
  Ethernet.set_handler eth ~ethertype:Ethernet.ethertype_arp (fun ~payload ->
      handle t ~payload);
  t

let announce t =
  let packet =
    build_packet ~op:op_request ~sha:(Ethernet.mac t.eth) ~spa:t.ip ~tha:Macaddr.broadcast
      ~tpa:t.ip
  in
  output t ~dst:Macaddr.broadcast packet

let set_ip t ip =
  t.ip <- ip;
  Mthread.Promise.async (fun () -> announce t)

let send_request t ip =
  t.requests_sent <- t.requests_sent + 1;
  let packet =
    build_packet ~op:op_request ~sha:(Ethernet.mac t.eth) ~spa:t.ip ~tha:Macaddr.broadcast ~tpa:ip
  in
  output t ~dst:Macaddr.broadcast packet

let retry_interval_ns = Engine.Sim.sec 1
let max_tries = 3

let resolve t ip =
  let open Mthread.Promise in
  let key = Ipaddr.to_int ip in
  match Engine.Inttbl.find t.cache key with
  | mac -> return mac
  | exception Not_found ->
    let p, u = wait () in
    let waiters =
      match Engine.Inttbl.find_opt t.waiting key with
      | Some w -> w
      | None ->
        let w = ref [] in
        Engine.Inttbl.replace t.waiting key w;
        w
    in
    waiters := u :: !waiters;
    let rec attempt n =
      if Option.is_some (Engine.Inttbl.find_opt t.cache key) then return ()
      else if n > max_tries then begin
        (match Engine.Inttbl.find_opt t.waiting key with
        | Some ws ->
          Engine.Inttbl.remove t.waiting key;
          List.iter
            (fun u ->
              if wakener_pending u then wakeup_exn u (Resolution_failed ip))
            !ws
        | None -> ());
        return ()
      end
      else
        bind (send_request t ip) (fun () ->
            (* Race the reply against the retry timer, descheduling the
               timer on success so idle simulations drain promptly. *)
            let timer = sleep t.sim retry_interval_ns in
            bind
              (choose [ map (fun _ -> `Resolved) p; map (fun () -> `Retry) timer ])
              (function
                | `Resolved ->
                  cancel timer;
                  return ()
                | `Retry -> attempt (n + 1)))
    in
    (* Only the first waiter drives retransmission. *)
    if List.length !waiters = 1 then async (fun () -> attempt 1);
    p

(* Seed the cache without traffic: boot storms pre-program well-known
   peers (the way /etc/ethers or a controller would) so 10⁴ concurrent
   boots don't each broadcast a resolution to 10⁴ ports. *)
let add_static t ~ip ~mac = learn t ip mac

let cached t ip = Engine.Inttbl.find_opt t.cache (Ipaddr.to_int ip)
let requests_sent t = t.requests_sent
