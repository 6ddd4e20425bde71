exception Closed

(* Control page layout (little-endian u32 unless noted):
     0  c2s_prod      4  c2s_cons
     8  s2c_prod     12  s2c_cons
    16  client_waiting (u8)   17  server_waiting (u8)
    18  client_closed (u8)    19  server_closed (u8) *)

type role = Server | Client

type shared = {
  hv : Hypervisor.t;
  ctrl : Bytestruct.t;
  c2s : Bytestruct.t;  (* client-to-server data ring *)
  s2c : Bytestruct.t;
  size : int;  (* per-direction capacity, power of two *)
}

type endpoint = {
  shared : shared;
  role : role;
  dom : Domain.t;
  port : Evtchn.port;
  wakeup : unit Mthread.Mcond.t;
  mutable closed : bool;
}

let u32 x = x land 0xFFFFFFFF
let get sh off = Bytestruct.LE.get_uint32_int sh.ctrl off
let set sh off v = Bytestruct.LE.set_uint32_int sh.ctrl off v
let get_flag sh off = Bytestruct.get_uint8 sh.ctrl off = 1
let set_flag sh off b = Bytestruct.set_uint8 sh.ctrl off (if b then 1 else 0)

let page_bytes = 4096

let round_up_pow2 n =
  let rec go acc = if acc >= n then acc else go (acc * 2) in
  go page_bytes

let connect hv ~server ~client ?(ring_bytes = 2 * page_bytes) () =
  let size = round_up_pow2 ring_bytes in
  let ctrl = Bytestruct.create page_bytes in
  let c2s = Bytestruct.create size in
  let s2c = Bytestruct.create size in
  (* The server allocates and grants the pages; the client maps them. The
     simulation shares storage directly, so the grant/map calls model the
     control-plane cost while data stays zero-copy. *)
  let gt = hv.Hypervisor.gnttab in
  let grant_and_map page =
    let r =
      Gnttab.grant_access gt ~dom:server.Domain.id ~peer:client.Domain.id ~writable:true page
    in
    ignore (Gnttab.map_rw gt ~by:client.Domain.id r)
  in
  List.iter grant_and_map [ ctrl; c2s; s2c ];
  let server_port = Evtchn.alloc_unbound hv.Hypervisor.evtchn ~owner:server.Domain.id in
  let client_port =
    Evtchn.bind_interdomain hv.Hypervisor.evtchn ~local:client.Domain.id ~remote_port:server_port
  in
  let shared = { hv; ctrl; c2s; s2c; size } in
  let make role dom port =
    { shared; role; dom; port; wakeup = Mthread.Mcond.create (); closed = false }
  in
  let s_ep = make Server server server_port in
  let c_ep = make Client client client_port in
  Evtchn.set_handler hv.Hypervisor.evtchn server_port (fun () ->
      Mthread.Mcond.broadcast s_ep.wakeup ());
  Evtchn.set_handler hv.Hypervisor.evtchn client_port (fun () ->
      Mthread.Mcond.broadcast c_ep.wakeup ());
  (s_ep, c_ep)

(* Per-role views of the ring indices. *)
let tx_offsets = function Client -> (0, 4) | Server -> (8, 12)
let rx_offsets = function Client -> (8, 12) | Server -> (0, 4)
let tx_ring ep = match ep.role with Client -> ep.shared.c2s | Server -> ep.shared.s2c
let rx_ring ep = match ep.role with Client -> ep.shared.s2c | Server -> ep.shared.c2s
let my_waiting_off = function Client -> 16 | Server -> 17
let peer_waiting_off = function Client -> 17 | Server -> 16
let peer_closed_off = function Client -> 19 | Server -> 18
let my_closed_off = function Client -> 18 | Server -> 19

let peer_closed ep = get_flag ep.shared (peer_closed_off ep.role)

let notify_peer_if_waiting ep =
  if get_flag ep.shared (peer_waiting_off ep.role) then begin
    set_flag ep.shared (peer_waiting_off ep.role) false;
    Evtchn.notify ep.shared.hv.Hypervisor.evtchn ep.port
  end

let copy_into_ring ring size prod src srcoff len =
  let start = prod land (size - 1) in
  let first = min len (size - start) in
  Bytestruct.blit src srcoff ring start first;
  if len > first then Bytestruct.blit src (srcoff + first) ring 0 (len - first)

let copy_from_ring ring size cons dst len =
  let start = cons land (size - 1) in
  let first = min len (size - start) in
  Bytestruct.blit ring start dst 0 first;
  if len > first then Bytestruct.blit ring 0 dst first (len - first)

let rec write ep buf =
  let open Mthread.Promise in
  if ep.closed || peer_closed ep then fail Closed
  else begin
    let sh = ep.shared in
    let prod_off, cons_off = tx_offsets ep.role in
    let prod = get sh prod_off and cons = get sh cons_off in
    let free = sh.size - u32 (prod - cons) in
    let len = Bytestruct.length buf in
    if len = 0 then return ()
    else if free = 0 then begin
      (* Declare ourselves asleep, then re-check before actually blocking
         (the race-free sequence the paper's footnote describes). *)
      set_flag sh (my_waiting_off ep.role) true;
      let cons' = get sh cons_off in
      if u32 (prod - cons') < sh.size then begin
        set_flag sh (my_waiting_off ep.role) false;
        write ep buf
      end
      else bind (Mthread.Mcond.wait ep.wakeup) (fun () -> write ep buf)
    end
    else begin
      let chunk = min free len in
      copy_into_ring (tx_ring ep) sh.size prod buf 0 chunk;
      set sh prod_off (u32 (prod + chunk));
      notify_peer_if_waiting ep;
      bind (Domain.charge ep.dom ~cost:(Platform.copy_cost ep.dom.Domain.platform ~bytes_len:chunk))
        (fun () -> if chunk = len then return () else write ep (Bytestruct.shift buf chunk))
    end
  end

let available ep =
  let sh = ep.shared in
  let prod_off, cons_off = rx_offsets ep.role in
  u32 (get sh prod_off - get sh cons_off)

let rec read ep ~max =
  let open Mthread.Promise in
  if ep.closed then fail Closed
  else begin
    let sh = ep.shared in
    let _, cons_off = rx_offsets ep.role in
    let avail = available ep in
    if avail > 0 then begin
      let chunk = min avail max in
      let out = Bytestruct.create chunk in
      let cons = get sh cons_off in
      copy_from_ring (rx_ring ep) sh.size cons out chunk;
      set sh cons_off (u32 (cons + chunk));
      notify_peer_if_waiting ep;
      bind (Domain.charge ep.dom ~cost:(Platform.copy_cost ep.dom.Domain.platform ~bytes_len:chunk))
        (fun () -> return (Some out))
    end
    else if peer_closed ep then return None
    else begin
      set_flag sh (my_waiting_off ep.role) true;
      if available ep > 0 || peer_closed ep then begin
        set_flag sh (my_waiting_off ep.role) false;
        read ep ~max
      end
      else bind (Mthread.Mcond.wait ep.wakeup) (fun () -> read ep ~max)
    end
  end

let close ep =
  if not ep.closed then begin
    ep.closed <- true;
    set_flag ep.shared (my_closed_off ep.role) true;
    (* Wake a peer blocked on us. *)
    set_flag ep.shared (peer_waiting_off ep.role) false;
    Evtchn.notify ep.shared.hv.Hypervisor.evtchn ep.port
  end
