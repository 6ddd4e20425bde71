(* Ring slot layout (16 bytes, little-endian, shared by requests and
   responses exactly as Xen's netif structs are):
     TX request:  id u16@0, size u16@2, gref u32@4
     TX response: id u16@0, status u16@2
     RX request:  id u16@0, gref u32@4
     RX response: id u16@0, size u16@2 *)

let slot_bytes = 16
let mtu_bytes = 1500
let backend_per_packet_ns = 1_600 (* dom0 netback work per frame *)

(* TX doorbells rung, and writes parked on a full TX ring, by every PV
   netif in the process. *)
let doorbells = ref 0
let tx_parks = ref 0

(* Vif taps, shaped like [Netsim.Bridge.tap]: frames as this guest's
   device sees them (TX as the request reaches the ring or the wire, RX
   at delivery), as opposed to a bridge-wide tap. Handles are unique per
   device. *)
type observer = dir:Netsim.dir -> link:int -> time_ns:int -> Bytestruct.t -> unit
type tap_handle = int

(* The TX requests in flight, each from its write to its TX response,
   in parallel arrays: request [id] lives in slot [id land (capacity -
   1)]. The ids in flight are consecutive and no more than the ring's
   slots, so they never share a slot once the arrays are as large as the
   ring. The arrays start small and double when an id finds its slot
   taken, so a vif that sends a handful of frames keeps a handful of
   slots. *)
type tx_pending = {
  mutable p_id : int array;  (* [-1]: slot free *)
  mutable p_gref : Xensim.Gnttab.grant_ref array;
  mutable p_waker : unit Mthread.Promise.u array;
  mutable p_span : Trace.span array;  (* request enqueue -> TX response *)
  mutable p_flow : Trace.Flow.id array;  (* causal flow of the sender, for the backend *)
  mutable p_owner : Pktbuf.t option array;  (* TX buffer ref, released on TX response *)
}

let no_waker = snd (Mthread.Promise.wait ())

let tx_pending_create cap =
  {
    p_id = Array.make cap (-1);
    p_gref = Array.make cap 0;
    p_waker = Array.make cap no_waker;
    p_span = Array.make cap Trace.dead_span;
    p_flow = Array.make cap Trace.Flow.none;
    p_owner = Array.make cap None;
  }

(* The slot holding request [id], or -1. *)
let tx_find p id =
  let i = id land (Array.length p.p_id - 1) in
  if p.p_id.(i) = id then i else -1

let tx_set p i ~id ~gref ~waker ~span ~flow ~owner =
  p.p_id.(i) <- id;
  p.p_gref.(i) <- gref;
  p.p_waker.(i) <- waker;
  p.p_span.(i) <- span;
  p.p_flow.(i) <- flow;
  p.p_owner.(i) <- owner

let tx_clear p i =
  tx_set p i ~id:(-1) ~gref:0 ~waker:no_waker ~span:Trace.dead_span ~flow:Trace.Flow.none
    ~owner:None

let rec tx_add p ~id ~gref ~waker ~span ~flow ~owner =
  let i = id land (Array.length p.p_id - 1) in
  if p.p_id.(i) < 0 then tx_set p i ~id ~gref ~waker ~span ~flow ~owner
  else begin
    let q = tx_pending_create (2 * Array.length p.p_id) in
    Array.iteri
      (fun i id ->
        if id >= 0 then
          tx_set q (id land (Array.length q.p_id - 1)) ~id ~gref:p.p_gref.(i) ~waker:p.p_waker.(i)
            ~span:p.p_span.(i) ~flow:p.p_flow.(i) ~owner:p.p_owner.(i))
      p.p_id;
    p.p_id <- q.p_id;
    p.p_gref <- q.p_gref;
    p.p_waker <- q.p_waker;
    p.p_span <- q.p_span;
    p.p_flow <- q.p_flow;
    p.p_owner <- q.p_owner;
    tx_add p ~id ~gref ~waker ~span ~flow ~owner
  end

(* What a PV attachment adds: the split driver's rings, ports and grant
   bookkeeping, and netback in [backend_dom]. *)
type pv = {
  hv : Xensim.Hypervisor.t;
  backend_dom : Xensim.Domain.t;
  tx_front : Xensim.Ring.Front.t;
  tx_back : Xensim.Ring.Back.t;
  rx_front : Xensim.Ring.Front.t;
  rx_back : Xensim.Ring.Back.t;
  tx_port_front : Xensim.Evtchn.port;  (* notify -> backend wakes *)
  tx_port_back : Xensim.Evtchn.port;  (* notify -> frontend wakes *)
  rx_port_front : Xensim.Evtchn.port;
  rx_port_back : Xensim.Evtchn.port;
  tx_pending : tx_pending;
  (* Posted RX credit, indexed by RX id = ring index of the credit's
     request (Linux netfront's xennet_rxidx): a slot's grant, or
     [no_credit], and its buffer once netback has copied a frame in.
     Ids of live credit are distinct because credit stays below the ring
     size, and a slot is cleared when its response is consumed. *)
  rx_gref : Xensim.Gnttab.grant_ref array;
  rx_buf : Pktbuf.t option array;
  mutable rx_posted : int;
  rx_fill : int -> Bytestruct.t;  (* the grant-table fill for every credit *)
  (* Tracing only, keyed by RX id: *)
  rx_spans : Trace.span Engine.Inttbl.t;  (* backend copy -> guest delivery *)
  rx_flows : Trace.Flow.id Engine.Inttbl.t;  (* per-slot flow: one evtchn batch mixes flows *)
  tx_waiters : unit Mthread.Promise.u Queue.t;
  mutable next_tx_id : int;
  mutable next_rx_id : int;
}

(* A direct attachment has no rings, grants or backend domain: the NIC
   is a host-kernel device and the guest-side cost model is the whole
   story. With [frame_tax] the domain pays the full userspace
   receive/transmit path per frame plus a syscall (the tuntap read/write
   of Posix_direct); without it only the host kernel's per-packet
   softirq work is charged (the in-kernel stack beneath Hostnet's
   sockets, which adds its own syscall/copy tax per socket operation
   instead). *)
type attachment = Pv of pv | Direct of { frame_tax : bool }

(* The guest-facing device, whatever it is attached through. *)
type t = {
  dom : Xensim.Domain.t;
  nic : Netsim.Nic.t;
  pool : Pktbuf.pool;
  mutable listener : (Bytestruct.t -> unit) option;
  mutable taps : (tap_handle * observer) list;  (* cleared at disconnect *)
  mutable next_tap : tap_handle;
  mutable tx_frames : int;
  mutable rx_frames : int;
  mutable rx_dropped : int;
  mutable closed : bool;
  attachment : attachment;
}

let gnttab p = p.hv.Xensim.Hypervisor.gnttab
let evtchn p = p.hv.Xensim.Hypervisor.evtchn

(* The one check a frame pays with no tap installed. *)
let[@inline] tapped t = match t.taps with [] -> false | _ :: _ -> true

(* Offer one frame to the taps with its backing buffer [owner] ambient,
   as the bridge's Tx tap does, so an observer retains instead of
   copying. *)
let fire_taps t ~owner ~dir frame =
  match t.taps with
  | [] -> ()
  | taps ->
    let time_ns = Engine.Sim.now t.dom.Xensim.Domain.sim in
    let link = Netsim.Nic.id t.nic in
    let fire () = List.iter (fun (_, f) -> f ~dir ~link ~time_ns frame) taps in
    (match owner with Some pb -> Pktbuf.with_current pb fire | None -> fire ())

let count_tx t ~owner frame =
  t.tx_frames <- t.tx_frames + 1;
  fire_taps t ~owner ~dir:Netsim.Tx frame

(* The end of every receive path: the Rx taps, then the listener, each
   with [pb] ambient so a layer that defers work retains instead of
   copying. Releasing the driver's reference afterwards returns the
   buffer to the pool only if nobody retained. With no tap installed a
   frame allocates nothing here. *)
let deliver t pb view =
  if tapped t then fire_taps t ~owner:(Some pb) ~dir:Netsim.Rx view;
  (match t.listener with Some f -> Pktbuf.with_current_arg pb f view | None -> ());
  Pktbuf.release pb

(* The counters every attachment exports, then the attachment's
   [gauges]. *)
let register_metrics t gauges =
  if Trace.Metrics.enabled () then begin
    let reg kind (name, read) =
      Trace.Metrics.register_read ~dom:t.dom.Xensim.Domain.id ~kind name read
    in
    List.iter (reg Trace.Metrics.Counter)
      [
        ("netif_tx_frames", fun () -> t.tx_frames);
        ("netif_rx_frames", fun () -> t.rx_frames);
        ("netif_rx_dropped", fun () -> t.rx_dropped);
      ];
    List.iter (reg Trace.Metrics.Gauge) gauges
  end

let create ~dom ~nic ~pool attachment =
  {
    dom;
    nic;
    pool;
    listener = None;
    taps = [];
    next_tap = 0;
    tx_frames = 0;
    rx_frames = 0;
    rx_dropped = 0;
    closed = false;
    attachment;
  }

(* ---- backend ---- *)

let backend_handle_tx t p () =
  let n =
    Xensim.Ring.Back.consume_requests p.tx_back (fun slot ->
        let id = Bytestruct.LE.get_uint16 slot 0 in
        let size = Bytestruct.LE.get_uint16 slot 2 in
        let gref = Bytestruct.LE.get_uint32_int slot 4 in
        (* One evtchn kick covers a batch of slots from different flows:
           re-establish each frame's own flow around the wire send. *)
        let i = tx_find p.tx_pending id in
        let fl = if i < 0 then Trace.Flow.none else p.tx_pending.p_flow.(i) in
        let owner = if i < 0 then None else p.tx_pending.p_owner.(i) in
        Trace.Flow.with_flow fl (fun () ->
            let work () =
              let page = Xensim.Gnttab.map (gnttab p) ~by:p.backend_dom.Xensim.Domain.id gref in
              let frame = Bytestruct.sub page 0 size in
              (* The mapped grant IS the guest's TX pktbuf storage: hand
                 the wire its refcount so the pool cannot recycle the
                 buffer while the frame is in flight. *)
              Netsim.Nic.send ?owner t.nic frame;
              Xensim.Gnttab.unmap (gnttab p) ~by:p.backend_dom.Xensim.Domain.id gref;
              let rsp = Xensim.Ring.Back.next_response p.tx_back in
              Bytestruct.LE.set_uint16 rsp 0 id;
              Bytestruct.LE.set_uint16 rsp 2 0 (* NETIF_RSP_OKAY *)
            in
            if Trace.Prof.enabled () then
              Trace.Prof.hop Trace.Prof.Ring_slot ~vcpu_ns:backend_per_packet_ns work
            else work ()))
  in
  if n > 0 then begin
    let kick () = Xensim.Domain.book p.backend_dom ~cost:(n * backend_per_packet_ns) in
    if Trace.Prof.enabled () then Trace.Prof.with_frame "netif" kick else kick ();
    if Xensim.Ring.Back.push_responses_and_check_notify p.tx_back then
      Xensim.Evtchn.notify (evtchn p) p.tx_port_back
  end

(* Consuming RX requests only moves [req_cons] (and re-arms
   [req_event]): a consumed request stays readable in its slot until the
   response that aliases it is pushed, so netback keeps no credit list of
   its own. *)
let backend_handle_rx_credit p () =
  ignore (Xensim.Ring.Back.consume_requests p.rx_back ignore)

let backend_deliver_frame t p ~id ~gref frame =
  if Trace.enabled () then
    Engine.Inttbl.replace p.rx_spans id
      (Trace.span ~dom:t.dom.Xensim.Domain.id ~cat:Trace.Device "netif.rx");
  let work () =
    Xensim.Gnttab.copy_to (gnttab p) ~by:p.backend_dom.Xensim.Domain.id gref ~src:frame;
    let rsp = Xensim.Ring.Back.next_response p.rx_back in
    Bytestruct.LE.set_uint16 rsp 0 id;
    Bytestruct.LE.set_uint16 rsp 2 (Bytestruct.length frame);
    let kick () = Xensim.Domain.book p.backend_dom ~cost:backend_per_packet_ns in
    if Trace.Prof.enabled () then Trace.Prof.with_frame "netif" kick else kick ();
    if Xensim.Ring.Back.push_responses_and_check_notify p.rx_back then
      Xensim.Evtchn.notify (evtchn p) p.rx_port_back
  in
  if Trace.Prof.enabled () then
    Trace.Prof.hop Trace.Prof.Ring_slot ~vcpu_ns:backend_per_packet_ns work
  else work ()

let backend_handle_frame t p frame =
  (* Pull any freshly-posted credit before deciding to drop. *)
  backend_handle_rx_credit p ();
  if Xensim.Ring.Back.unanswered p.rx_back = 0 then begin
    t.rx_dropped <- t.rx_dropped + 1;
    if Trace.Flight.enabled () then
      Trace.Flight.note ~dom:t.dom.Xensim.Domain.id ~cat:Trace.Device "netif.rx_drop"
  end
  else begin
    let slot = Xensim.Ring.Back.oldest_unanswered p.rx_back in
    let id = Bytestruct.LE.get_uint16 slot 0 in
    let gref = Bytestruct.LE.get_uint32_int slot 4 in
    if Trace.enabled () then begin
      (* Every frame entering a backend begins a fresh causal flow; the
         flow then rides the scheduler ([Engine.Sim.at]) through evtchn
         delivery, the guest stack, the request handler and back out the
         TX path — until the next hop's backend RX starts the next one. *)
      let fl = Trace.Flow.start ~dom:t.dom.Xensim.Domain.id () in
      Engine.Inttbl.replace p.rx_flows id fl;
      Trace.Flow.with_flow fl (fun () -> backend_deliver_frame t p ~id ~gref frame)
    end
    else backend_deliver_frame t p ~id ~gref frame
  end

(* ---- frontend ---- *)

let no_credit = -1

(* The buffer behind credit [id], drawn from the pool the first time it
   is needed: when netback copies a frame in. *)
let rx_buffer pool p id =
  match p.rx_buf.(id) with
  | Some pb -> pb
  | None ->
    let pb = Pktbuf.alloc pool in
    p.rx_buf.(id) <- Some pb;
    pb

let post_rx_buffer t p =
  (* Credit is a promise of a page, not a page: the grant materialises
     the buffer only when the backend actually copies a frame into it.
     A vif posts up to 511 slots but a storm appliance receives a
     handful of frames, so eager buffers would pin ~1 MiB per vif. *)
  let id = p.next_rx_id land (Array.length p.rx_gref - 1) in
  p.next_rx_id <- p.next_rx_id + 1;
  let gref =
    Xensim.Gnttab.grant_access_deferred (gnttab p) ~dom:t.dom.Xensim.Domain.id
      ~peer:p.backend_dom.Xensim.Domain.id ~writable:true ~fill:p.rx_fill id
  in
  p.rx_gref.(id) <- gref;
  p.rx_posted <- p.rx_posted + 1;
  let slot = Xensim.Ring.Front.next_request p.rx_front in
  Bytestruct.LE.set_uint16 slot 0 id;
  Bytestruct.LE.set_uint32_int slot 4 gref

let frontend_handle_tx_responses p () =
  ignore
    (Xensim.Ring.Front.consume_responses p.tx_front (fun slot ->
         let id = Bytestruct.LE.get_uint16 slot 0 in
         let q = p.tx_pending in
         let i = tx_find q id in
         if i >= 0 then begin
           let gref = q.p_gref.(i) and waker = q.p_waker.(i) and span = q.p_span.(i) in
           let flow = q.p_flow.(i) and owner = q.p_owner.(i) in
           tx_clear q i;
           Xensim.Gnttab.end_access (gnttab p) gref;
           (* Driver's TX reference: the wire holds its own if the frame
              is still in flight, so this release is what lets a
              delivered frame's buffer return to the pool. *)
           (match owner with Some pb -> Pktbuf.release pb | None -> ());
           Trace.Flow.with_flow flow (fun () ->
               Trace.finish span;
               if Mthread.Promise.wakener_pending waker then Mthread.Promise.wakeup waker ())
         end));
  (* Ring space freed: wake writers blocked on a full ring. *)
  let rec wake () =
    if Xensim.Ring.Front.free_requests p.tx_front > 0 then
      match Queue.take_opt p.tx_waiters with
      | Some u when Mthread.Promise.wakener_pending u ->
        Mthread.Promise.wakeup u ();
        wake ()
      | Some _ -> wake ()
      | None -> ()
  in
  wake ()

let frontend_handle_rx_responses t p () =
  let arrived = ref [] in
  let n =
    Xensim.Ring.Front.consume_responses p.rx_front (fun slot ->
        let id = Bytestruct.LE.get_uint16 slot 0 in
        let size = Bytestruct.LE.get_uint16 slot 2 in
        let gref = p.rx_gref.(id) in
        if gref <> no_credit then begin
          (* a response means the backend copied into it: materialised *)
          let page = rx_buffer t.pool p id in
          p.rx_gref.(id) <- no_credit;
          p.rx_buf.(id) <- None;
          p.rx_posted <- p.rx_posted - 1;
          Xensim.Gnttab.end_access (gnttab p) gref;
          arrived := (id, page, size) :: !arrived
        end)
  in
  if n > 0 then begin
    let plat = t.dom.Xensim.Domain.platform in
    List.iter
      (fun (id, page, size) ->
        t.rx_frames <- t.rx_frames + 1;
        let cost = Platform.rx_cost plat ~bytes_len:size in
        (* Deliver once the vCPU has done the receive-path work; charge_k
           keeps per-frame ordering (sequential reservations on one vCPU). *)
        let deliver_frame () =
          if t.closed then
            (* Torn down while the vCPU worked: the frame is dropped.
               Reposting would grant a page nobody revokes and notify a
               closed port. *)
            Pktbuf.release page
          else begin
            (* The evtchn kick that scheduled us carries only the flow of
               the frame that raised it; a batched ring holds frames from
               many flows, so re-establish this slot's own. *)
            let fl =
              if Engine.Inttbl.length p.rx_flows = 0 then Trace.Flow.none
              else
                match Engine.Inttbl.find p.rx_flows id with
                | fl ->
                  Engine.Inttbl.remove p.rx_flows id;
                  fl
                | exception Not_found -> Trace.Flow.none
            in
            Trace.Flow.with_flow fl (fun () ->
                if Engine.Inttbl.length p.rx_spans > 0 then (
                  match Engine.Inttbl.find p.rx_spans id with
                  | span ->
                    Engine.Inttbl.remove p.rx_spans id;
                    Trace.finish span
                  | exception Not_found -> ());
                (* Zero-copy handoff: a view straight over the granted
                   buffer. *)
                deliver t page (Pktbuf.view page ~off:0 ~len:size);
                (* Replace the consumed credit. *)
                post_rx_buffer t p;
                if Xensim.Ring.Front.push_requests_and_check_notify p.rx_front then
                  Xensim.Evtchn.notify (evtchn p) p.rx_port_front)
          end
        in
        let deliver_frame () =
          if Trace.Prof.enabled () then
            Trace.Prof.hop Trace.Prof.Netfront ~vcpu_ns:cost deliver_frame
          else deliver_frame ()
        in
        (* Charge under the [netif] frame so the rx work — and everything
           the listener defers — is attributed to the driver stack. *)
        if Trace.Prof.enabled () then
          Trace.Prof.with_frame "netif" (fun () -> Xensim.Domain.charge_k t.dom ~cost deliver_frame)
        else Xensim.Domain.charge_k t.dom ~cost deliver_frame)
      (List.rev !arrived)
  end

(* Multi-page rings (as blkif's multi-page ring extension): 512 slots
   absorb several full TCP windows, on TX before a writer blocks and on
   RX before the backend must drop. *)
let max_ring_slots = 512

(* Receive credit is at most one less than the ring, so each ring is the
   smallest power of two above it: the default 511 credits get 512
   slots, a storm vif's 64 get 128. The TX ring is sized the same way:
   the negotiated credit is how much traffic the vif was provisioned
   for, and a storm vif that sends a handful of frames never fills 128
   slots (a full ring parks the writer, counted by [tx_full_parks]). *)
let ring_slots_for credit =
  let rec pow2 n = if n > credit then n else pow2 (2 * n) in
  pow2 1

let connect hv ~dom ~backend_dom ~nic ?(rx_slots = 512) () =
  (* Each ring page is sized to its slot count; indices are free-running,
     so the ring size changes no notification threshold or event. *)
  let make_ring nr_slots =
    let page = Bytestruct.create (Xensim.Ring.Sring.page_bytes ~slot_bytes nr_slots) in
    let sring = Xensim.Ring.Sring.init page ~slot_bytes in
    (Xensim.Ring.Front.init sring, Xensim.Ring.Back.init (Xensim.Ring.Sring.attach page ~slot_bytes))
  in
  let credit = min rx_slots (max_ring_slots - 1) in
  let tx_front, tx_back = make_ring (ring_slots_for credit) in
  let rx_front, rx_back = make_ring (ring_slots_for credit) in
  let ev = hv.Xensim.Hypervisor.evtchn in
  let alloc_pair () =
    let back_port = Xensim.Evtchn.alloc_unbound ev ~owner:backend_dom.Xensim.Domain.id in
    let front_port =
      Xensim.Evtchn.bind_interdomain ev ~local:dom.Xensim.Domain.id ~remote_port:back_port
    in
    (front_port, back_port)
  in
  let tx_port_front, tx_port_back = alloc_pair () in
  let rx_port_front, rx_port_back = alloc_pair () in
  let rx_slots = Xensim.Ring.Front.nr_slots rx_front in
  (* No pre-allocation: credit posts deferred grants, so buffers exist
     only for frames actually in flight, drawn from and returned to the
     shared freelist. An eager [rx_slots]-buffer pool would pin ~1 MiB
     per vif whether or not a single frame ever arrives. *)
  let pool = Pktbuf.create_pool () in
  let rec p =
    {
      hv;
      backend_dom;
      tx_front;
      tx_back;
      rx_front;
      rx_back;
      tx_port_front;
      tx_port_back;
      rx_port_front;
      rx_port_back;
      tx_pending = tx_pending_create 4;
      rx_gref = Array.make rx_slots no_credit;
      rx_buf = Array.make rx_slots None;
      rx_posted = 0;
      rx_fill = (fun id -> Pktbuf.storage (rx_buffer pool p id));
      rx_spans = Engine.Inttbl.create 1;
      rx_flows = Engine.Inttbl.create 1;
      tx_waiters = Queue.create ();
      next_tx_id = 0;
      next_rx_id = 0;
    }
  in
  let t = create ~dom ~nic ~pool (Pv p) in
  Xensim.Evtchn.set_handler ev tx_port_back (fun () -> backend_handle_tx t p ());
  Xensim.Evtchn.set_handler ev tx_port_front (fun () -> frontend_handle_tx_responses p ());
  Xensim.Evtchn.set_handler ev rx_port_back (fun () -> backend_handle_rx_credit p ());
  Xensim.Evtchn.set_handler ev rx_port_front (fun () -> frontend_handle_rx_responses t p ());
  Netsim.Nic.set_rx nic (fun frame -> backend_handle_frame t p frame);
  for _ = 1 to credit do
    post_rx_buffer t p
  done;
  if Xensim.Ring.Front.push_requests_and_check_notify p.rx_front then
    Xensim.Evtchn.notify ev p.rx_port_front;
  (* Ensure the backend sees the initial credit even without a notify edge. *)
  backend_handle_rx_credit p ();
  register_metrics t
    [
      ( "netif_tx_inflight",
        fun () -> Array.fold_left (fun n id -> if id >= 0 then n + 1 else n) 0 p.tx_pending.p_id );
      ("netif_rx_posted", fun () -> p.rx_posted);
    ];
  t

(* ---- direct attachment ---- *)

(* The guest's per-frame work on [path] (Platform.rx_cost or tx_cost). *)
let direct_cost t ~frame_tax path len =
  let plat = t.dom.Xensim.Domain.platform in
  if frame_tax then path plat ~bytes_len:len + plat.Platform.syscall_ns
  else plat.Platform.per_packet_ns

let direct_handle_frame t ~frame_tax frame =
  match t.listener with
  | None -> t.rx_dropped <- t.rx_dropped + 1
  | Some _ ->
    let size = Bytestruct.length frame in
    (* The wire buffer is only valid during this callback. When it is
       pktbuf-backed (PV peer on the same bridge), a reference keeps it
       alive across the deferred vCPU charge — the copy tax this path
       models is in the cost model, not a real blit. Raw frames still
       get copied into a pool buffer. *)
    let view, holder =
      match Pktbuf.retain_current () with
      | Some pb -> (frame, pb)
      | None ->
        let pb = Pktbuf.alloc t.pool in
        Bytestruct.blit frame 0 (Pktbuf.storage pb) 0 size;
        (Pktbuf.view pb ~off:0 ~len:size, pb)
    in
    let deliver_frame () =
      t.rx_frames <- t.rx_frames + 1;
      let span =
        if Trace.enabled () then
          Some (Trace.span ~dom:t.dom.Xensim.Domain.id ~cat:Trace.Device "netif.rx")
        else None
      in
      Xensim.Domain.charge_k t.dom ~cost:(direct_cost t ~frame_tax Platform.rx_cost size) (fun () ->
          (match span with Some sp -> Trace.finish sp | None -> ());
          deliver t holder view)
    in
    if Trace.enabled () then
      (* As on the PV path: every frame entering from the wire begins a
         fresh causal flow that then rides the scheduler through the
         stack and the application. *)
      Trace.Flow.with_flow (Trace.Flow.start ~dom:t.dom.Xensim.Domain.id ()) deliver_frame
    else deliver_frame ()

let connect_direct ~dom ~nic ?(frame_tax = false) () =
  let t = create ~dom ~nic ~pool:(Pktbuf.create_pool ()) (Direct { frame_tax }) in
  Netsim.Nic.set_rx nic (fun frame -> direct_handle_frame t ~frame_tax frame);
  register_metrics t [];
  t

let direct_write ?owner t ~frame_tax frame len =
  let open Mthread.Promise in
  count_tx t ~owner frame;
  let span = Trace.span ~dom:t.dom.Xensim.Domain.id ~cat:Trace.Device "netif.tx" in
  let done_p, waker = wait () in
  Xensim.Domain.charge_k t.dom ~cost:(direct_cost t ~frame_tax Platform.tx_cost len) (fun () ->
      (* The wire retains per scheduled delivery, so the write's own
         reference (transferred by the caller) can drop right away. Torn
         down while the vCPU worked: the frame is dropped unsent. *)
      if not t.closed then Netsim.Nic.send ?owner t.nic frame;
      (match owner with Some pb -> Pktbuf.release pb | None -> ());
      Trace.finish span;
      wakeup waker ());
  done_p

let mac t = Netsim.Nic.mac t.nic
let nic t = t.nic
let mtu _ = mtu_bytes
let pool t = t.pool

let tx_doorbells () = !doorbells
let tx_full_parks () = !tx_parks

let rec write ?owner t frame =
  let len = Bytestruct.length frame in
  if len > mtu_bytes + 14 then invalid_arg "Netif.write: frame exceeds MTU";
  if t.closed then begin
    (* A write to a torn-down vif is a drop. *)
    Option.iter Pktbuf.release owner;
    Mthread.Promise.return ()
  end
  else
    match t.attachment with
    | Pv p -> pv_write ?owner t p frame len
    | Direct { frame_tax } -> direct_write ?owner t ~frame_tax frame len

and pv_write ?owner t p frame len =
  let open Mthread.Promise in
  if Xensim.Ring.Front.free_requests p.tx_front = 0 then begin
    incr tx_parks;
    let blocked, u = wait () in
    Queue.add u p.tx_waiters;
    bind blocked (fun () -> write ?owner t frame)
  end
  else begin
    let gref =
      Xensim.Gnttab.grant_access (gnttab p) ~dom:t.dom.Xensim.Domain.id
        ~peer:p.backend_dom.Xensim.Domain.id ~writable:false frame
    in
    let id = p.next_tx_id in
    p.next_tx_id <- (p.next_tx_id + 1) land 0xffff;
    let done_p, waker = Mthread.Promise.wait () in
    let span = Trace.span ~dom:t.dom.Xensim.Domain.id ~cat:Trace.Device "netif.tx" in
    let flow = if Trace.enabled () then Trace.Flow.current () else Trace.Flow.none in
    tx_add p.tx_pending ~id ~gref ~waker ~span ~flow ~owner;
    let slot = Xensim.Ring.Front.next_request p.tx_front in
    Bytestruct.LE.set_uint16 slot 0 id;
    Bytestruct.LE.set_uint16 slot 2 len;
    Bytestruct.LE.set_uint32_int slot 4 gref;
    count_tx t ~owner frame;
    (* The vCPU does the driver work before the frame reaches the ring —
       this is what makes a busy guest the throughput bottleneck. *)
    let send () =
      Xensim.Domain.charge_k t.dom
        ~cost:(Platform.tx_cost t.dom.Xensim.Domain.platform ~bytes_len:len)
        (fun () ->
          (* Torn down while the vCPU worked: [disconnect] has revoked
             the grant and released the buffer, so the frame is dropped
             unpushed, and the write resolves here since no TX response
             will. *)
          if t.closed then wakeup waker ()
          else if Xensim.Ring.Front.push_requests_and_check_notify p.tx_front then begin
            incr doorbells;
            Xensim.Evtchn.notify (evtchn p) p.tx_port_front
          end)
    in
    if Trace.Prof.enabled () then Trace.Prof.with_frame "netif" send else send ();
    done_p
  end

(* Ring teardown, audited so nothing here scans other domains' state:
   close the event channels (which frees the port entries and the
   backend/frontend handler closures pinning this device), revoke every
   outstanding grant, and drop posted receive credit. TX writers still
   parked on a full ring never resume, exactly as for a destroyed
   domain. *)
let pv_disconnect p =
  let ev = evtchn p in
  Xensim.Evtchn.close ev p.tx_port_front;
  Xensim.Evtchn.close ev p.rx_port_front;
  let q = p.tx_pending in
  Array.iteri
    (fun i id ->
      if id >= 0 then begin
        Xensim.Gnttab.end_access (gnttab p) q.p_gref.(i);
        Option.iter Pktbuf.release q.p_owner.(i);
        tx_clear q i
      end)
    q.p_id;
  Array.iteri
    (fun id gref ->
      if gref <> no_credit then begin
        Xensim.Gnttab.end_access (gnttab p) gref;
        p.rx_gref.(id) <- no_credit;
        Option.iter Pktbuf.release p.rx_buf.(id);
        p.rx_buf.(id) <- None
      end)
    p.rx_gref;
  p.rx_posted <- 0;
  Engine.Inttbl.reset p.rx_spans;
  Engine.Inttbl.reset p.rx_flows;
  Queue.clear p.tx_waiters

(* After this the whole device — rings, pool, pending tables — is
   garbage as soon as the caller lets go of [t]. *)
let disconnect t =
  t.closed <- true;
  t.listener <- None;
  t.taps <- [];
  (match t.attachment with Pv p -> pv_disconnect p | Direct _ -> ());
  Netsim.Nic.set_rx t.nic (fun _ -> ())

let set_listener t f = t.listener <- Some f

let tap t f =
  let h = t.next_tap in
  t.next_tap <- h + 1;
  t.taps <- (h, f) :: t.taps;
  h

let untap t h = t.taps <- List.filter (fun (h', _) -> h' <> h) t.taps

let tx_ring_slots t =
  match t.attachment with Pv p -> Xensim.Ring.Front.nr_slots p.tx_front | Direct _ -> 0

let rx_ring_slots t =
  match t.attachment with Pv p -> Xensim.Ring.Front.nr_slots p.rx_front | Direct _ -> 0

let rx_posted t = match t.attachment with Pv p -> p.rx_posted | Direct _ -> 0
let tx_frames t = t.tx_frames
let rx_frames t = t.rx_frames
let rx_dropped t = t.rx_dropped
