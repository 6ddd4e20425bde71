module Seq = Tcp_wire.Seq

(* Rebound to the canonical Device_sig exceptions so application code
   functorized over Device_sig.TCP catches the same runtime identity
   whichever backend raised it. *)
exception Connection_refused = Device_sig.Connection_refused
exception Connection_reset = Device_sig.Connection_reset

let default_mss = 1448
(* Sized below the netfront receive credit (127 frames ~ 180 KB) so a
   full window burst cannot overrun the posted buffers. *)
let rcv_wnd_bytes = 131072
let snd_buf_bytes = 262144
let our_wscale = 7
let initial_rto_ns = Engine.Sim.ms 200
let min_rto_ns = Engine.Sim.ms 50
let max_rto_ns = Engine.Sim.sec 60
let max_persist_ns = Engine.Sim.sec 5
let msl_ns = Engine.Sim.sec 1
let max_syn_retries = 5

(* Data-path give-up threshold, Linux's tcp_retries2: after this many
   consecutive unacknowledged RTO retransmissions (or zero-window persist
   probes) the peer is presumed gone and the flow fails with [Timeout].
   Without a cap a vanished peer — a destroyed domain, say — leaves the
   sender rearming its backed-off timer for ever, which in a
   run-to-empty simulator means the run never terminates.  A 10^4-domain
   boot storm makes that certain rather than merely possible. *)
let max_data_retries = 15

(* Cap on the out-of-order reassembly list. A window-respecting sender of
   full-size segments can have at most rcv_wnd_bytes / default_mss ≈ 91
   segments outstanding, so 128 is never reached in legitimate operation;
   only a tinygram flood (many sub-MSS segments behind a hole) or a peer
   ignoring our window hits it. The furthest segment is evicted first —
   it is the one the sender will retransmit last anyway. *)
let max_ooo_segments = 128

type state =
  | Syn_sent
  | Syn_rcvd
  | Established
  | Fin_wait_1
  | Fin_wait_2
  | Close_wait
  | Closing
  | Last_ack
  | Time_wait
  | Closed

type rtx_entry = {
  e_seq : Seq.t;
  e_len : int;  (* sequence space consumed, incl. SYN/FIN *)
  e_payload : Bytestruct.t;
  e_syn : bool;
  e_fin : bool;
  mutable e_sent_at : int;
  mutable e_retx : bool;
  e_flow : Trace.Flow.id;  (* causal flow that originated this data *)
}

type key = { k_port : int; k_rip : Ipaddr.t; k_rport : int }

type flow = {
  t : engine;
  key : key;
  mutable state : state;
  (* send side *)
  mutable snd_una : Seq.t;
  mutable snd_nxt : Seq.t;
  mutable snd_wnd : int;
  mutable snd_wl1 : Seq.t;  (* seq of the segment last used to update snd_wnd *)
  mutable snd_wl2 : Seq.t;  (* ack of that segment (RFC 793 §3.9) *)
  mutable snd_wscale : int;
  mutable mss : int;
  mutable cwnd : int;
  mutable ssthresh : int;
  mutable dupacks : int;
  mutable in_recovery : bool;
  mutable recover : Seq.t;
  mutable rto_recover : Seq.t;  (* snd_nxt at the last RTO: go-back-N up to here *)
  rtx : rtx_entry Queue.t;  (* ascending seq; O(1) tail append *)
  tx_chunks : Bytestruct.t Queue.t;
  mutable tx_head_off : int;
  mutable tx_buffered : int;
  tx_waiters : unit Mthread.Promise.u Queue.t;
  mutable fin_queued : bool;
  mutable fin_sent : bool;
  (* receive side *)
  mutable rcv_nxt : Seq.t;
  mutable rcv_wscale : int;
  mutable rx_buffered : int;  (* bytes delivered to [rx] but not yet read *)
  (* Reassembly entries and stream chunks may alias pooled driver pages;
     the [Pktbuf.t option] is the reference held on each one's behalf
     ([None] = a private copy, nothing to release). *)
  mutable ooo : (Seq.t * Bytestruct.t * Pktbuf.t option) list;  (* ascending seq, disjoint *)
  rx : Bytestruct.t Mthread.Mstream.t;
  rx_owners : Pktbuf.t option Queue.t;  (* one entry per [rx] push, FIFO *)
  mutable read_hold : Pktbuf.t option;  (* ref backing the chunk last returned by [read] *)
  (* timers and RTT estimation *)
  mutable rto_ns : int;
  mutable srtt_ns : int;
  mutable rttvar_ns : int;
  mutable rtt_probe : (Seq.t * int) option;
  mutable rto_timer : Engine.Sim.handle option;
  mutable persist_timer : Engine.Sim.handle option;
  mutable persist_backoff_ns : int;
  mutable probes_out : int;  (* consecutive unanswered zero-window probes *)
  (* lifecycle *)
  mutable connect_waker : flow Mthread.Promise.u option;
  mutable close_waker : unit Mthread.Promise.u option;
  mutable syn_tries : int;
  mutable rto_tries : int;  (* consecutive data RTOs without forward progress *)
  mutable error : exn option;
  mutable bytes_received : int;
  (* introspection (the ss-style socket table) *)
  created_ns : int;
  mutable retx_count : int;  (* this flow's retransmitted segments *)
}

and engine = {
  sim : Engine.Sim.t;
  ip : Ipv4.t;
  dom : Xensim.Domain.t option;
  dom_id : int option;  (* [dom]'s id, the domain every trace record names *)
  flows : (key, flow) Hashtbl.t;
  listeners : (int, flow -> unit Mthread.Promise.t) Hashtbl.t;
  mutable next_ephemeral : int;
  mutable segs_sent : int;
  mutable segs_received : int;
  mutable retransmissions : int;
  mutable fast_retransmits : int;
  mutable rto_fires : int;
  mutable persist_probes : int;
  mutable ooo_evictions : int;
  (* 2-MSL lingers. Every one lasts 2 MSL and none is cancelled, so they
     end in the order flows entered TIME_WAIT. *)
  time_wait : Engine.Sim.lane;
}

type t = engine

(* ---------- low-level output ---------- *)

(* Real receive-window accounting: advertise what is left of the receive
   buffer after subtracting bytes delivered to the application stream but
   not yet read. A non-reading application drives this to zero, stalling
   the sender (which then persist-probes, see below) instead of letting it
   flood an unbounded queue. *)
let advertised_window fl = max 0 (rcv_wnd_bytes - fl.rx_buffered) lsr our_wscale

let send_segment t ~key ~seq ~ack ~flags ~options ~window ~payload =
  t.segs_sent <- t.segs_sent + 1;
  if Trace.enabled () then
    Trace.emit
      ?dom:t.dom_id
      ~cat:Trace.Net
      ~payload:
        [ ("seq", Trace.Int (Seq.to_int seq)); ("len", Trace.Int (Bytestruct.length payload)) ]
      "tcp.tx_segment";
  let seg =
    {
      Tcp_wire.src_port = key.k_port;
      dst_port = key.k_rport;
      seq;
      ack;
      flags;
      window;
      options;
      payload;
    }
  in
  (* The header bytes are built only when the segment leaves: what waits
     out the vCPU backlog is [seg] (scalars and the payload view), not
     encoded buffers. *)
  let emit () =
    Ipv4.output t.ip ~dst:key.k_rip ~proto:Ipv4.proto_tcp
      (Tcp_wire.encode ~src:(Ipv4.address t.ip) ~dst:key.k_rip seg)
  in
  match t.dom with
  | None -> Mthread.Promise.async emit
  | Some d ->
    (* Segment preparation occupies the vCPU before the packet can leave:
       data-bearing segments pay the full transmit path, pure ACKs a small
       fixed cost. This gating is what caps Figure 8's throughput. *)
    let cost =
      if Bytestruct.length payload > 0 || flags.Tcp_wire.syn || flags.Tcp_wire.fin then
        d.Xensim.Domain.platform.Platform.tcp_tx_extra_ns
      else d.Xensim.Domain.platform.Platform.tcp_ack_extra_ns
    in
    let send () = Xensim.Domain.charge_k d ~cost (fun () -> Mthread.Promise.async emit) in
    if Trace.Prof.enabled () then Trace.Prof.with_frame "tcp" send else send ()

let send_rst_for t ~key ~seq ~ack =
  send_segment t ~key ~seq ~ack
    ~flags:{ Tcp_wire.flags_none with rst = true; ack = true }
    ~options:[] ~window:0 ~payload:(Bytestruct.create 0)

(* The ACK field: zero until the peer's SYN is known. *)
let seg_ack fl = if fl.state = Syn_sent then Seq.zero else fl.rcv_nxt

(* A segment's first transmission: queue it for retransmission, advance
   [snd_nxt] past it and send it. Its sequence space is the payload plus
   one for a SYN or a FIN. The caller chooses the flags, options and
   window: a SYN's differ from those [retransmit_entry_now] gives its
   retransmission. *)
let send_new fl ~flags ~options ~window payload =
  let seq = fl.snd_nxt in
  let syn = flags.Tcp_wire.syn and fin = flags.Tcp_wire.fin in
  let len = Bytestruct.length payload + if syn || fin then 1 else 0 in
  Queue.add
    {
      e_seq = seq;
      e_len = len;
      e_payload = payload;
      e_syn = syn;
      e_fin = fin;
      e_sent_at = Engine.Sim.now fl.t.sim;
      e_retx = false;
      e_flow = (if Trace.enabled () then Trace.Flow.current () else Trace.Flow.none);
    }
    fl.rtx;
  fl.snd_nxt <- Seq.add seq len;
  send_segment fl.t ~key:fl.key ~seq ~ack:(seg_ack fl) ~flags ~options ~window ~payload

(* ---------- timers ---------- *)

let cancel_rto fl =
  match fl.rto_timer with
  | Some h ->
    Engine.Sim.cancel h;
    fl.rto_timer <- None
  | None -> ()

let cancel_persist fl =
  match fl.persist_timer with
  | Some h ->
    Engine.Sim.cancel h;
    fl.persist_timer <- None
  | None -> ()

(* Drop reassembly references back to the pool. Data that never reached
   the stream is discarded — RST semantics on an abortive close. *)
let release_rx_refs fl =
  List.iter (fun (_, _, o) -> Option.iter Pktbuf.release o) fl.ooo;
  fl.ooo <- []

(* Nothing more is sent or reassembled: both timers stop and the
   reassembly references go back to the pool. *)
let quiesce fl =
  cancel_rto fl;
  cancel_persist fl;
  release_rx_refs fl

(* Return the pool references the flow holds for the application: the
   chunk last returned by [read] is valid only until now (see [read]).
   Chunks pushed but not yet read are first copied out of their pool
   pages, so a late reader still gets the same bytes. Done once the
   connection has finished closing (TIME_WAIT, or leaving the table):
   no more data can arrive, and a 2-MSL linger must not pin a page. *)
let release_app_refs fl =
  Option.iter Pktbuf.release fl.read_hold;
  fl.read_hold <- None;
  if not (Queue.is_empty fl.rx_owners) then begin
    Mthread.Mstream.map_buffered Bytestruct.copy fl.rx;
    Queue.iter (Option.iter Pktbuf.release) fl.rx_owners;
    Queue.clear fl.rx_owners
  end

let leave_table fl =
  fl.state <- Closed;
  Hashtbl.remove fl.t.flows fl.key;
  release_app_refs fl

(* [close]'s contract is "our direction is shut down and acknowledged";
   full teardown may wait on the peer's FIN indefinitely. *)
let wake_close fl =
  match fl.close_waker with
  | Some u when Mthread.Promise.wakener_pending u -> Mthread.Promise.wakeup u ()
  | _ -> ()

let rec arm_rto fl =
  cancel_rto fl;
  if not (Queue.is_empty fl.rtx) then
    fl.rto_timer <- Some (Engine.Sim.schedule fl.t.sim ~delay:fl.rto_ns (fun () -> on_rto fl))

and on_rto fl =
  fl.rto_timer <- None;
  match Queue.peek_opt fl.rtx with
  | None -> ()
  | Some e ->
    fl.t.rto_fires <- fl.t.rto_fires + 1;
    (match fl.state with
    | Syn_sent | Syn_rcvd ->
      fl.syn_tries <- fl.syn_tries + 1;
      if fl.syn_tries > max_syn_retries then fail_flow fl Mthread.Promise.Timeout
      else retransmit_entry fl e
    | _ ->
      fl.rto_tries <- fl.rto_tries + 1;
      if fl.rto_tries > max_data_retries then begin
        (* Data-path give-up (tcp_retries2): this many consecutive
           backed-off RTOs with no forward progress means the peer is
           gone — fail the flow instead of retransmitting forever. *)
        fail_flow fl Mthread.Promise.Timeout
      end
      else begin
        (* Timeout: collapse to slow start (RFC 5681). *)
        let flight = Seq.diff fl.snd_nxt fl.snd_una in
        fl.ssthresh <- max (flight / 2) (2 * fl.mss);
        fl.cwnd <- fl.mss;
        fl.in_recovery <- false;
        fl.dupacks <- 0;
        (* Everything in flight at the timeout is presumed lost: record the
           high-water mark so returning ACKs clock go-back-N retransmission
           (RFC 5681 §3.1) instead of paying one backed-off RTO per segment. *)
        fl.rto_recover <- fl.snd_nxt;
        retransmit_entry fl e
      end);
    fl.rto_ns <- min (fl.rto_ns * 2) max_rto_ns;
    arm_rto fl

and retransmit_entry fl e =
  (* Attribute the retransmission (and the whole TX path under it) to the
     causal flow that originally queued this data, not to whichever
     context the timer or ACK happened to fire in. *)
  Trace.Flow.with_flow e.e_flow (fun () -> retransmit_entry_now fl e)

and retransmit_entry_now fl e =
  fl.t.retransmissions <- fl.t.retransmissions + 1;
  fl.retx_count <- fl.retx_count + 1;
  (* Karn's rule: any retransmission — RTO, fast retransmit, partial-ack
     hole fill or persist probe — invalidates the open RTT probe, since an
     ACK covering it can no longer be attributed to one transmission. *)
  fl.rtt_probe <- None;
  if Trace.enabled () then
    Trace.emit
      ?dom:fl.t.dom_id
      ~cat:Trace.Net
      ~payload:[ ("seq", Trace.Int (Seq.to_int e.e_seq)); ("len", Trace.Int e.e_len) ]
      "tcp.retransmit";
  if Trace.Flight.enabled () then
    Trace.Flight.note
      ?dom:fl.t.dom_id
      ~cat:Trace.Net
      ~payload:
        [
          ("seq", Trace.Int (Seq.to_int e.e_seq));
          ("len", Trace.Int e.e_len);
          ("rport", Trace.Int fl.key.k_rport);
          ("rto_ns", Trace.Int fl.rto_ns);
        ]
      "tcp.retransmit";
  e.e_retx <- true;
  e.e_sent_at <- Engine.Sim.now fl.t.sim;
  let flags =
    {
      Tcp_wire.flags_none with
      syn = e.e_syn;
      fin = e.e_fin;
      ack = fl.state <> Syn_sent;
      psh = Bytestruct.length e.e_payload > 0;
    }
  in
  let options =
    if e.e_syn then [ Tcp_wire.Mss fl.mss; Tcp_wire.Window_scale our_wscale ] else []
  in
  send_segment fl.t ~key:fl.key ~seq:e.e_seq ~ack:(seg_ack fl) ~flags ~options
    ~window:(advertised_window fl) ~payload:e.e_payload

(* ---------- failure ---------- *)

and fail_flow fl err =
  if fl.state <> Closed then begin
    (* Black box first: freeze the flow's identity and send-state while it
       is still intact, then trip a postmortem on the give-up path — a
       [Timeout] means retransmits/probes exhausted against a silent peer,
       exactly the failure that is invisible once the flow is dropped. *)
    if Trace.Flight.enabled () then begin
      let dom = Option.value fl.t.dom_id ~default:(-1) in
      let payload =
        [
          ("port", Trace.Int fl.key.k_port);
          ("rip", Trace.String (Ipaddr.to_string fl.key.k_rip));
          ("rport", Trace.Int fl.key.k_rport);
          ("snd_una", Trace.Int (Seq.to_int fl.snd_una));
          ("snd_nxt", Trace.Int (Seq.to_int fl.snd_nxt));
          ("tx_buffered", Trace.Int fl.tx_buffered);
          ("rto_ns", Trace.Int fl.rto_ns);
          ("probes_out", Trace.Int fl.probes_out);
        ]
      in
      Trace.Flight.note ~dom ~cat:Trace.Net ~payload "tcp.flow_fail";
      match err with
      | Mthread.Promise.Timeout -> Trace.Flight.trip ~dom ~payload ~reason:"tcp.timeout" ()
      | _ -> ()
    end;
    fl.error <- Some err;
    quiesce fl;
    (* Drop all unsent/unacked data: nothing may retransmit from a dead
       flow, and a non-empty [rtx] would invite a later [arm_rto]. *)
    Queue.clear fl.rtx;
    Queue.clear fl.tx_chunks;
    fl.tx_head_off <- 0;
    fl.tx_buffered <- 0;
    leave_table fl;
    Mthread.Mstream.close fl.rx;
    (match fl.connect_waker with
    | Some u when Mthread.Promise.wakener_pending u -> Mthread.Promise.wakeup_exn u err
    | _ -> ());
    wake_close fl;
    Queue.iter
      (fun u -> if Mthread.Promise.wakener_pending u then Mthread.Promise.wakeup_exn u err)
      fl.tx_waiters;
    Queue.clear fl.tx_waiters
  end

(* ---------- send path ---------- *)

let flight_size fl = Seq.diff fl.snd_nxt fl.snd_una

let effective_snd_wnd fl = min fl.snd_wnd fl.cwnd

(* Gather up to [n] bytes from the transmit chunk queue into one buffer.
   When the head chunk covers the whole segment — the common case, a
   writer handing us MSS-or-larger buffers — the rtx entry is a view into
   the writer's own buffer rather than a copy: [write]'s ownership
   transfer guarantees the bytes stay immutable until acknowledged. *)
let gather_tx fl n =
  let head = Queue.peek fl.tx_chunks in
  let head_avail = Bytestruct.length head - fl.tx_head_off in
  if head_avail >= n then begin
    let out = Bytestruct.sub head fl.tx_head_off n in
    if head_avail = n then begin
      ignore (Queue.pop fl.tx_chunks);
      fl.tx_head_off <- 0
    end
    else fl.tx_head_off <- fl.tx_head_off + n;
    fl.tx_buffered <- fl.tx_buffered - n;
    out
  end
  else begin
    let out = Bytestruct.create n in
    let filled = ref 0 in
    while !filled < n do
      let chunk = Queue.peek fl.tx_chunks in
      let avail = Bytestruct.length chunk - fl.tx_head_off in
      let take = min avail (n - !filled) in
      Bytestruct.blit chunk fl.tx_head_off out !filled take;
      filled := !filled + take;
      if take = avail then begin
        ignore (Queue.pop fl.tx_chunks);
        fl.tx_head_off <- 0
      end
      else fl.tx_head_off <- fl.tx_head_off + take
    done;
    fl.tx_buffered <- fl.tx_buffered - n;
    out
  end

let wake_tx_waiters fl =
  while
    fl.tx_buffered < snd_buf_bytes
    &&
    match Queue.take_opt fl.tx_waiters with
    | Some u ->
      if Mthread.Promise.wakener_pending u then Mthread.Promise.wakeup u ();
      true
    | None -> false
  do
    ()
  done

let rec try_output fl =
  match fl.state with
  | Established | Close_wait | Fin_wait_1 | Closing | Last_ack ->
    let window = effective_snd_wnd fl in
    let in_flight = flight_size fl in
    if fl.tx_buffered > 0 && in_flight < window then begin
      let room = window - in_flight in
      let len = min (min fl.tx_buffered room) fl.mss in
      if len > 0 then begin
        let payload = gather_tx fl len in
        if fl.rtt_probe = None then
          fl.rtt_probe <- Some (Seq.add fl.snd_nxt len, Engine.Sim.now fl.t.sim);
        send_new fl
          ~flags:{ Tcp_wire.flags_none with ack = true; psh = fl.tx_buffered = 0 }
          ~options:[] ~window:(advertised_window fl) payload;
        if fl.rto_timer = None then arm_rto fl;
        wake_tx_waiters fl;
        try_output fl
      end
    end
    else begin
      maybe_send_fin fl;
      maybe_arm_persist fl
    end
  | Syn_sent | Syn_rcvd | Fin_wait_2 | Time_wait | Closed -> ()

and maybe_send_fin fl =
  if
    fl.fin_queued && (not fl.fin_sent) && fl.tx_buffered = 0
    && flight_size fl < effective_snd_wnd fl
  then begin
    send_fin fl;
    if fl.rto_timer = None then arm_rto fl
  end

(* Our FIN, sent when the window has room for it or as a zero-window
   probe. *)
and send_fin fl =
  fl.fin_sent <- true;
  send_new fl
    ~flags:{ Tcp_wire.flags_none with ack = true; fin = true }
    ~options:[] ~window:(advertised_window fl) (Bytestruct.create 0)

(* Persist timer (RFC 1122 4.2.2.17): a peer advertising a zero window
   with nothing of ours in flight would deadlock us — its reopening window
   update is a pure ACK, sent unreliably. Probe it with one byte (or our
   pending FIN) on an exponentially backed-off timer until it reopens. *)
and maybe_arm_persist fl =
  if
    fl.persist_timer = None && fl.snd_wnd = 0 && Queue.is_empty fl.rtx
    && (fl.tx_buffered > 0 || (fl.fin_queued && not fl.fin_sent))
  then begin
    if fl.persist_backoff_ns = 0 then fl.persist_backoff_ns <- max fl.rto_ns min_rto_ns;
    fl.persist_timer <-
      Some
        (Engine.Sim.schedule fl.t.sim ~delay:fl.persist_backoff_ns (fun () -> on_persist fl))
  end

and on_persist fl =
  fl.persist_timer <- None;
  match fl.state with
  | Established | Close_wait | Fin_wait_1 | Closing | Last_ack ->
    if fl.snd_wnd > 0 then begin
      fl.persist_backoff_ns <- 0;
      fl.probes_out <- 0;
      if (not (Queue.is_empty fl.rtx)) && fl.rto_timer = None then arm_rto fl;
      try_output fl
    end
    else if fl.probes_out >= max_data_retries then
      (* The window never reopened and no probe was ever answered: the
         peer is gone (Linux's probe counter against tcp_retries2). *)
      fail_flow fl Mthread.Promise.Timeout
    else begin
      fl.probes_out <- fl.probes_out + 1;
      fl.t.persist_probes <- fl.t.persist_probes + 1;
      if Trace.enabled () then
        Trace.emit
          ?dom:fl.t.dom_id
          ~cat:Trace.Net
          ~payload:[ ("backoff_ns", Trace.Int fl.persist_backoff_ns) ]
          "tcp.persist_probe";
      if Trace.Flight.enabled () then
        Trace.Flight.note
          ?dom:fl.t.dom_id
          ~cat:Trace.Net
          ~payload:
            [
              ("backoff_ns", Trace.Int fl.persist_backoff_ns);
              ("probes_out", Trace.Int fl.probes_out);
              ("rport", Trace.Int fl.key.k_rport);
            ]
          "tcp.persist_probe";
      (match Queue.peek_opt fl.rtx with
      | Some e ->
        (* The previous probe is still unacknowledged: resend it. *)
        retransmit_entry fl e
      | None ->
        if fl.tx_buffered > 0 then
          send_new fl
            ~flags:{ Tcp_wire.flags_none with ack = true; psh = true }
            ~options:[] ~window:(advertised_window fl) (gather_tx fl 1)
        else if fl.fin_queued && not fl.fin_sent then send_fin fl);
      fl.persist_backoff_ns <- min (fl.persist_backoff_ns * 2) max_persist_ns;
      fl.persist_timer <-
        Some
          (Engine.Sim.schedule fl.t.sim ~delay:fl.persist_backoff_ns (fun () -> on_persist fl))
    end
  | Syn_sent | Syn_rcvd | Fin_wait_2 | Time_wait | Closed -> ()

(* ---------- RTT estimation (RFC 6298) ---------- *)


let rtt_sample fl sample_ns =
  (* A segment rtt span: the probe opened at transmission closes here. *)
  if Trace.enabled () then
    Trace.record_span_ns
      ?dom:fl.t.dom_id
      ~cat:Trace.Net "tcp.rtt" sample_ns;
  if fl.srtt_ns = 0 then begin
    fl.srtt_ns <- sample_ns;
    fl.rttvar_ns <- sample_ns / 2
  end
  else begin
    let err = abs (fl.srtt_ns - sample_ns) in
    fl.rttvar_ns <- ((3 * fl.rttvar_ns) + err) / 4;
    fl.srtt_ns <- ((7 * fl.srtt_ns) + sample_ns) / 8
  end;
  fl.rto_ns <- min max_rto_ns (max min_rto_ns (fl.srtt_ns + (4 * fl.rttvar_ns)))

(* ---------- ACK processing ---------- *)

let remove_acked fl ack =
  let acked = ref 0 in
  let stop = ref false in
  while not !stop do
    match Queue.peek_opt fl.rtx with
    | Some e when Seq.leq (Seq.add e.e_seq e.e_len) ack ->
      acked := !acked + e.e_len;
      ignore (Queue.pop fl.rtx)
    | _ -> stop := true
  done;
  !acked

let congestion_avoidance_ack fl acked_bytes =
  if fl.cwnd < fl.ssthresh then fl.cwnd <- fl.cwnd + min acked_bytes fl.mss
  else fl.cwnd <- fl.cwnd + max 1 (fl.mss * fl.mss / fl.cwnd)

let enter_fast_retransmit fl =
  fl.t.fast_retransmits <- fl.t.fast_retransmits + 1;
  let flight = flight_size fl in
  fl.ssthresh <- max (flight / 2) (2 * fl.mss);
  fl.recover <- fl.snd_nxt;
  fl.in_recovery <- true;
  fl.cwnd <- fl.ssthresh + (3 * fl.mss);
  (match Queue.peek_opt fl.rtx with Some e -> retransmit_entry fl e | None -> ());
  arm_rto fl

(* [old_wnd] is the send window before this segment's (possibly rejected)
   window update: a pure window update must not be mistaken for a dupack. *)
let handle_ack fl ~old_wnd (seg : Tcp_wire.segment) =
  let ack = seg.ack in
  if Seq.gt ack fl.snd_una && Seq.leq ack fl.snd_nxt then begin
    (* New data acknowledged. *)
    let acked = remove_acked fl ack in
    fl.snd_una <- ack;
    fl.dupacks <- 0;
    fl.rto_tries <- 0;
    fl.probes_out <- 0;
    (match fl.rtt_probe with
    | Some (probe_seq, t0) when Seq.geq ack probe_seq ->
      (* Karn: only sample if nothing acked was retransmitted — the probe
         is cleared on any retransmission, so reaching here is a clean
         sample. *)
      rtt_sample fl (Engine.Sim.now fl.t.sim - t0);
      fl.rtt_probe <- None
    | _ -> ());
    if fl.in_recovery then begin
      if Seq.geq ack fl.recover then begin
        (* Full acknowledgment: leave recovery (NewReno). *)
        fl.in_recovery <- false;
        fl.cwnd <- fl.ssthresh
      end
      else begin
        (* Partial ack: retransmit the next hole, deflate. *)
        (match Queue.peek_opt fl.rtx with Some e -> retransmit_entry fl e | None -> ());
        fl.cwnd <- max fl.mss (fl.cwnd - acked + fl.mss)
      end
    end
    else congestion_avoidance_ack fl acked;
    (* Post-RTO go-back-N: until the pre-timeout flight is fully acked,
       each returning ACK clocks out the next presumed-lost segment. *)
    if (not fl.in_recovery) && Seq.lt fl.snd_una fl.rto_recover then
      (match Queue.peek_opt fl.rtx with Some e -> retransmit_entry fl e | None -> ());
    if Queue.is_empty fl.rtx then cancel_rto fl else arm_rto fl;
    wake_tx_waiters fl
  end
  else if
    Seq.equal ack fl.snd_una
    && (not (Queue.is_empty fl.rtx))
    && Bytestruct.length seg.payload = 0
    && (not seg.flags.Tcp_wire.syn)
    && fl.snd_wnd = old_wnd
  then begin
    fl.dupacks <- fl.dupacks + 1;
    if fl.in_recovery then begin
      fl.cwnd <- fl.cwnd + fl.mss;
      try_output fl
    end
    else if fl.dupacks = 3 then enter_fast_retransmit fl
  end

(* ---------- receive path ---------- *)

(* Push one chunk to the application stream, recording the pool
   reference (if any) held on its behalf. The owner must be queued
   before the push: a pending reader's callback runs inside [push]. *)
let push_rx fl view owner =
  Queue.add owner fl.rx_owners;
  Mthread.Mstream.push fl.rx view

let rx_account fl len =
  fl.bytes_received <- fl.bytes_received + len;
  fl.rx_buffered <- fl.rx_buffered + len;
  if Trace.enabled () then
    Trace.emit
      ?dom:fl.t.dom_id
      ~cat:Trace.Net
      ~payload:[ ("qlen", Trace.Int fl.rx_buffered) ]
      "tcp.rx_buffered";
  if Trace.Flight.enabled () then Trace.Flight.watermark "tcp.rx_buffered" fl.rx_buffered

let deliver_rx fl ?owner payload =
  (* Zero-copy to the application boundary: the chunk is a view over the
     driver's pool page, pinned by its own reference until the reader
     moves past it (cf. paper §3.4.1 where GC tracking plays this role).
     Without an owner the payload is already a private copy. *)
  rx_account fl (Bytestruct.length payload);
  Option.iter Pktbuf.retain owner;
  if Trace.Prof.enabled () then
    Trace.Prof.hop Trace.Prof.Deliver ~vcpu_ns:0 (fun () -> push_rx fl payload owner)
  else push_rx fl payload owner

let rec integrate_ooo fl =
  match fl.ooo with
  | (seq, data, owner) :: rest when Seq.leq seq fl.rcv_nxt ->
    let skip = Seq.diff fl.rcv_nxt seq in
    if skip < Bytestruct.length data then begin
      let fresh = Bytestruct.shift data skip in
      let len = Bytestruct.length fresh in
      fl.rcv_nxt <- Seq.add fl.rcv_nxt len;
      rx_account fl len;
      (* The entry's pool reference transfers to the stream. *)
      push_rx fl fresh owner
    end
    else Option.iter Pktbuf.release owner;
    fl.ooo <- rest;
    integrate_ooo fl
  | _ -> ()

let insert_ooo fl seq data owner =
  (* Keep segments sorted; on an exact seq match keep the longer of the
     two (a retransmission may extend a previously stored segment); keep
     overlaps (they are trimmed during integration). Each stored entry
     holds its own pool reference; losers release theirs. *)
  let keep () =
    Option.iter Pktbuf.retain owner;
    owner
  in
  let rec ins = function
    | [] -> [ (seq, data, keep ()) ]
    | (s, d, o) :: rest when Seq.lt seq s -> (seq, data, keep ()) :: (s, d, o) :: rest
    | (s, d, o) :: rest when Seq.equal seq s ->
      if Bytestruct.length data > Bytestruct.length d then begin
        Option.iter Pktbuf.release o;
        (s, data, keep ()) :: rest
      end
      else (s, d, o) :: rest
    | (s, d, o) :: rest -> (s, d, o) :: ins rest
  in
  let inserted = ins fl.ooo in
  if List.length inserted > max_ooo_segments then begin
    (* Evict the highest-seq segment — furthest from the hole, last to be
       retransmitted. *)
    fl.t.ooo_evictions <- fl.t.ooo_evictions + 1;
    if Trace.enabled () then
      Trace.emit
        ?dom:fl.t.dom_id
        ~cat:Trace.Net "tcp.ooo_eviction";
    fl.ooo <-
      (match List.rev inserted with
      | (_, _, o) :: keep_rev ->
        Option.iter Pktbuf.release o;
        List.rev keep_rev
      | [] -> [])
  end
  else fl.ooo <- inserted

let send_ack fl =
  send_segment fl.t ~key:fl.key ~seq:fl.snd_nxt ~ack:fl.rcv_nxt
    ~flags:{ Tcp_wire.flags_none with ack = true }
    ~options:[] ~window:(advertised_window fl) ~payload:(Bytestruct.create 0)

let enter_time_wait fl =
  fl.state <- Time_wait;
  quiesce fl;
  release_app_refs fl;
  (* Reaching TIME_WAIT means our FIN is acknowledged: [close]'s contract
     is satisfied now, not after the 2-MSL linger. *)
  wake_close fl;
  Engine.Sim.lane_at fl.t.time_wait ~time:(Engine.Sim.now fl.t.sim + (2 * msl_ns)) (fun () ->
      leave_table fl)

let finish_close fl =
  quiesce fl;
  leave_table fl;
  wake_close fl

let fin_acked fl = fl.fin_sent && Queue.is_empty fl.rtx && Seq.equal fl.snd_una fl.snd_nxt

(* RFC 793 §3.9: take a window update only from a segment at least as
   recent as the one last used (SND.WL1/WL2), with an acceptable ack —
   under reordering, a stale segment must not shrink or reopen the
   window. *)
let update_snd_wnd fl (seg : Tcp_wire.segment) =
  if
    Seq.leq fl.snd_una seg.ack && Seq.leq seg.ack fl.snd_nxt
    && (Seq.lt fl.snd_wl1 seg.seq
       || (Seq.equal fl.snd_wl1 seg.seq && Seq.leq fl.snd_wl2 seg.ack))
  then begin
    let old_wnd = fl.snd_wnd in
    fl.snd_wnd <- seg.window lsl fl.snd_wscale;
    fl.snd_wl1 <- seg.seq;
    fl.snd_wl2 <- seg.ack;
    if old_wnd = 0 && fl.snd_wnd > 0 then begin
      (* Window reopened: back to the regular retransmit regime. *)
      cancel_persist fl;
      fl.persist_backoff_ns <- 0;
      fl.probes_out <- 0;
      if (not (Queue.is_empty fl.rtx)) && fl.rto_timer = None then arm_rto fl
    end
  end
  else if Trace.enabled () then
    Trace.emit
      ?dom:fl.t.dom_id
      ~cat:Trace.Net "tcp.stale_window_update"

(* ---------- handshake ---------- *)

(* The peer's SYN or SYN-ACK: its options, and the sequence number its
   data starts after. *)
let take_syn fl (seg : Tcp_wire.segment) =
  List.iter
    (function
      | Tcp_wire.Mss m -> fl.mss <- min fl.mss m
      | Tcp_wire.Window_scale s -> fl.snd_wscale <- s)
    seg.options;
  fl.rcv_nxt <- Seq.add seg.seq 1

(* Our SYN is acknowledged by [seg]. Only the send window's scaling
   differs between the two ends, so the caller passes it. *)
let establish fl (seg : Tcp_wire.segment) ~window =
  fl.state <- Established;
  fl.snd_una <- seg.ack;
  fl.snd_wnd <- window;
  fl.snd_wl1 <- seg.seq;
  fl.snd_wl2 <- seg.ack;
  Queue.clear fl.rtx;
  cancel_rto fl;
  fl.rto_ns <- initial_rto_ns;
  fl.cwnd <- 10 * fl.mss

(* The SYN of [connect] and the SYN-ACK of [handle_syn]. A SYN's window
   is never scaled (RFC 7323 §2.2), so it offers the whole buffer, capped
   at 16 bits. [retransmit_entry_now] resends a SYN with the scaled
   window and [fl.mss] instead: a known fault, kept until the fix can
   move the paper rows it touches. *)
let send_syn fl =
  send_new fl
    ~flags:{ Tcp_wire.flags_none with syn = true; ack = fl.state = Syn_rcvd }
    ~options:[ Tcp_wire.Mss default_mss; Tcp_wire.Window_scale our_wscale ]
    ~window:(min 0xffff rcv_wnd_bytes) (Bytestruct.create 0);
  arm_rto fl

(* [owner] is the datagram's reference on the pool buffer backing
   [seg.payload] ([None] when the payload is a private copy); consumers
   that outlive this call (stream, reassembly) retain their
   own references — the datagram's is released by [handle_datagram]. *)
let rec handle_segment fl ?owner (seg : Tcp_wire.segment) =
  let t = fl.t in
  if seg.flags.Tcp_wire.rst then begin
    match fl.state with
    | Syn_sent -> fail_flow fl Connection_refused
    | _ -> fail_flow fl Connection_reset
  end
  else begin
    match fl.state with
    | Syn_sent when seg.flags.Tcp_wire.syn && seg.flags.Tcp_wire.ack ->
      if Seq.equal seg.ack fl.snd_nxt then begin
        take_syn fl seg;
        (* The SYN-ACK window is never scaled (RFC 7323). *)
        establish fl seg ~window:seg.window;
        send_ack fl;
        match fl.connect_waker with
        | Some u when Mthread.Promise.wakener_pending u -> Mthread.Promise.wakeup u fl
        | _ -> ()
      end
      else send_rst_for t ~key:fl.key ~seq:seg.ack ~ack:Seq.zero
    | Syn_sent ->
      () (* simultaneous open not supported; ignore *)
    | Syn_rcvd when seg.flags.Tcp_wire.ack && Seq.equal seg.ack fl.snd_nxt ->
      establish fl seg ~window:(seg.window lsl fl.snd_wscale);
      (match Hashtbl.find_opt t.listeners fl.key.k_port with
      | Some accept_cb -> Mthread.Promise.async (fun () -> accept_cb fl)
      | None -> ());
      (* The ACK completing the handshake may carry data: fall through by
         re-processing below. *)
      if Bytestruct.length seg.payload > 0 || seg.flags.Tcp_wire.fin then
        handle_segment fl ?owner seg
    | Syn_rcvd -> ()
    | Established | Fin_wait_1 | Fin_wait_2 | Close_wait | Closing | Last_ack | Time_wait ->
      let old_wnd = fl.snd_wnd in
      if seg.flags.Tcp_wire.ack then begin
        update_snd_wnd fl seg;
        handle_ack fl ~old_wnd seg
      end;
      (* Data. Any data-bearing segment elicits an ACK — including stale
         retransmissions arriving after our receive side closed; without
         this, a sender whose final ACKs were lost retransmits forever. *)
      let paylen = Bytestruct.length seg.payload in
      let had_data = paylen > 0 in
      if paylen > 0 && (fl.state = Established || fl.state = Fin_wait_1 || fl.state = Fin_wait_2)
      then begin
        if Seq.equal seg.seq fl.rcv_nxt then begin
          deliver_rx fl ?owner seg.payload;
          fl.rcv_nxt <- Seq.add fl.rcv_nxt paylen;
          integrate_ooo fl
        end
        else if Seq.gt seg.seq fl.rcv_nxt then insert_ooo fl seg.seq seg.payload owner
        (* else: pure duplicate, just re-ACK *)
      end;
      (* FIN. *)
      let fin_in_order =
        seg.flags.Tcp_wire.fin && Seq.equal (Seq.add seg.seq paylen) fl.rcv_nxt
      in
      if fin_in_order then begin
        fl.rcv_nxt <- Seq.add fl.rcv_nxt 1;
        Mthread.Mstream.close fl.rx;
        (match fl.state with
        | Established -> fl.state <- Close_wait
        | Fin_wait_1 -> if fin_acked fl then enter_time_wait fl else fl.state <- Closing
        | Fin_wait_2 -> enter_time_wait fl
        | _ -> ());
        send_ack fl
      end
      else if had_data || (seg.flags.Tcp_wire.fin && Seq.lt (Seq.add seg.seq paylen) fl.rcv_nxt)
      then send_ack fl;
      (* Our FIN's fate drives the closing states. *)
      (match fl.state with
      | Fin_wait_1 when fin_acked fl ->
        fl.state <- Fin_wait_2;
        wake_close fl
      | Closing when fin_acked fl -> enter_time_wait fl
      | Last_ack when fin_acked fl -> finish_close fl
      | _ -> ());
      try_output fl
    | Closed -> ()
  end

(* ---------- engine & demux ---------- *)

let make_flow t key state =
  let iss = Seq.of_int (Engine.Prng.int (Engine.Sim.prng t.sim) 0x10000000) in
  {
    t;
    key;
    state;
    snd_una = iss;
    snd_nxt = iss;
    snd_wnd = default_mss;
    snd_wl1 = Seq.zero;
    snd_wl2 = Seq.zero;
    snd_wscale = 0;
    mss = default_mss;
    cwnd = 10 * default_mss;
    ssthresh = max_int / 2;
    dupacks = 0;
    in_recovery = false;
    recover = iss;
    rto_recover = iss;
    rtx = Queue.create ();
    tx_chunks = Queue.create ();
    tx_head_off = 0;
    tx_buffered = 0;
    tx_waiters = Queue.create ();
    fin_queued = false;
    fin_sent = false;
    rcv_nxt = Seq.zero;
    rcv_wscale = our_wscale;
    rx_buffered = 0;
    ooo = [];
    rx = Mthread.Mstream.create ();
    rx_owners = Queue.create ();
    read_hold = None;
    rto_ns = initial_rto_ns;
    srtt_ns = 0;
    rttvar_ns = 0;
    rtt_probe = None;
    rto_timer = None;
    persist_timer = None;
    persist_backoff_ns = 0;
    probes_out = 0;
    connect_waker = None;
    close_waker = None;
    syn_tries = 0;
    rto_tries = 0;
    error = None;
    bytes_received = 0;
    created_ns = Engine.Sim.now t.sim;
    retx_count = 0;
  }

let handle_syn t ~src (seg : Tcp_wire.segment) =
  match Hashtbl.find_opt t.listeners seg.dst_port with
  | None ->
    send_rst_for t
      ~key:{ k_port = seg.dst_port; k_rip = src; k_rport = seg.src_port }
      ~seq:Seq.zero ~ack:(Seq.add seg.seq 1)
  | Some _ ->
    let key = { k_port = seg.dst_port; k_rip = src; k_rport = seg.src_port } in
    let fl = make_flow t key Syn_rcvd in
    take_syn fl seg;
    fl.snd_wnd <- seg.window;
    fl.snd_wl1 <- seg.seq;
    fl.snd_wl2 <- Seq.zero;
    Hashtbl.replace t.flows key fl;
    send_syn fl

let handle_datagram t ~src ~dst ~payload =
  match Tcp_wire.decode ~src ~dst payload with
  | Error _ -> ()
  | Ok seg ->
    t.segs_received <- t.segs_received + 1;
    (* The payload view aliases a driver buffer recycled when this
       callback returns. On the pooled fast path, take a reference
       instead of copying — processing is deferred behind the vCPU
       charge, and the reference keeps the page pinned until then. Only
       frames from outside the pool (loopback, raw injectors, tests)
       still pay the defensive copy. *)
    let paylen = Bytestruct.length seg.Tcp_wire.payload in
    let owner = if paylen > 0 then Pktbuf.retain_current () else None in
    let seg =
      match owner with
      | Some _ -> seg
      | None ->
        if paylen > 0 then { seg with Tcp_wire.payload = Bytestruct.copy seg.Tcp_wire.payload }
        else seg
    in
    let process () =
      let key = { k_port = seg.dst_port; k_rip = src; k_rport = seg.src_port } in
      (match Hashtbl.find_opt t.flows key with
      | Some fl -> handle_segment fl ?owner seg
      | None ->
        if seg.flags.Tcp_wire.syn && not seg.flags.Tcp_wire.ack then handle_syn t ~src seg
        else if not seg.flags.Tcp_wire.rst then
          send_rst_for t ~key ~seq:seg.ack ~ack:(Seq.add seg.seq (Bytestruct.length seg.payload)));
      Option.iter Pktbuf.release owner
    in
    (match t.dom with
    | None -> process ()
    | Some d ->
      let cost =
        if Bytestruct.length seg.Tcp_wire.payload > 0 then
          d.Xensim.Domain.platform.Platform.tcp_rx_extra_ns
        else d.Xensim.Domain.platform.Platform.tcp_ack_extra_ns
      in
      (* Packet-path hop: the deferred segment processing lands on the
         [tcp] frame it is charged under, and its allocation region nests
         nothing but [deliver_rx]. *)
      let process () =
        if Trace.Prof.enabled () then Trace.Prof.hop Trace.Prof.Tcp ~vcpu_ns:cost process
        else process ()
      in
      let charge () =
        if Trace.enabled () then begin
          let queued = Engine.Sim.now t.sim in
          Xensim.Domain.charge_k d ~cost (fun () ->
              (* Retro-span covering queue-for-vCPU + segment processing,
                 so the flow's TCP-layer time is attributable offline. *)
              if Trace.enabled () then
                Trace.record_span_ns ~dom:d.Xensim.Domain.id ~cat:Trace.Net "tcp.rx"
                  (Engine.Sim.now t.sim - queued);
              process ())
        end
        else Xensim.Domain.charge_k d ~cost process
      in
      if Trace.Prof.enabled () then Trace.Prof.with_frame "tcp" charge else charge ())

let create sim ?dom ip =
  let t =
    {
      sim;
      ip;
      dom;
      dom_id = (match dom with Some d -> Some d.Xensim.Domain.id | None -> None);
      flows = Hashtbl.create 64;
      listeners = Hashtbl.create 8;
      next_ephemeral = 32768;
      segs_sent = 0;
      segs_received = 0;
      retransmissions = 0;
      fast_retransmits = 0;
      rto_fires = 0;
      persist_probes = 0;
      ooo_evictions = 0;
      time_wait = Engine.Sim.lane sim;
    }
  in
  Ipv4.set_handler ip ~proto:Ipv4.proto_tcp (fun ~src ~dst ~payload ->
      handle_datagram t ~src ~dst ~payload);
  (if Trace.Metrics.enabled () then
     match dom with
     | None -> ()
     | Some d ->
       (* Pull metrics over stats the engine already maintains: the
          send/retransmit fast paths are untouched. *)
       let dom = d.Xensim.Domain.id in
       let reg name read = Trace.Metrics.register_read ~dom ~kind:Trace.Metrics.Counter name read in
       reg "tcp_segs_sent" (fun () -> t.segs_sent);
       reg "tcp_segs_received" (fun () -> t.segs_received);
       reg "tcp_retransmissions" (fun () -> t.retransmissions);
       reg "tcp_fast_retransmits" (fun () -> t.fast_retransmits);
       reg "tcp_rto_fires" (fun () -> t.rto_fires);
       reg "tcp_persist_probes" (fun () -> t.persist_probes);
       Trace.Metrics.register_read ~dom ~kind:Trace.Metrics.Gauge "tcp_active_flows" (fun () ->
           Hashtbl.length t.flows);
       Trace.Metrics.register_read ~dom ~kind:Trace.Metrics.Gauge "tcp_flows_established"
         (fun () ->
           Hashtbl.fold (fun _ fl n -> if fl.state = Established then n + 1 else n) t.flows 0);
       Trace.Metrics.register_read ~dom ~kind:Trace.Metrics.Gauge "tcp_listen_ports" (fun () ->
           Hashtbl.length t.listeners));
  t

let listen t ~port f = Hashtbl.replace t.listeners port f
let unlisten t ~port = Hashtbl.remove t.listeners port

let connect t ~dst ~dst_port =
  let open Mthread.Promise in
  let rec fresh_port () =
    let p = t.next_ephemeral in
    t.next_ephemeral <- (if t.next_ephemeral >= 60999 then 32768 else t.next_ephemeral + 1);
    if Hashtbl.mem t.flows { k_port = p; k_rip = dst; k_rport = dst_port } then fresh_port ()
    else p
  in
  let key = { k_port = fresh_port (); k_rip = dst; k_rport = dst_port } in
  let fl = make_flow t key Syn_sent in
  Hashtbl.replace t.flows key fl;
  let p, u = wait () in
  fl.connect_waker <- Some u;
  send_syn fl;
  p

(* ---------- flow API ---------- *)

let read fl =
  Mthread.Promise.bind (Mthread.Mstream.next fl.rx) (function
    | Some c as chunk ->
      (* The previous chunk's pool reference drops now: a returned chunk
         is valid until the next [read] or until the connection finishes
         closing (the Device_sig contract). *)
      Option.iter Pktbuf.release fl.read_hold;
      fl.read_hold <- (match Queue.take_opt fl.rx_owners with Some o -> o | None -> None);
      let free_before = rcv_wnd_bytes - fl.rx_buffered in
      fl.rx_buffered <- max 0 (fl.rx_buffered - Bytestruct.length c);
      let free_after = rcv_wnd_bytes - fl.rx_buffered in
      (* Receiver-side SWS avoidance: announce the reopened window only
         once a full segment fits again. The peer's persist probes back
         this up if the update ACK is lost. *)
      (match fl.state with
      | Established | Fin_wait_1 | Fin_wait_2 ->
        if free_before < fl.mss && free_after >= fl.mss then send_ack fl
      | _ -> ());
      Mthread.Promise.return chunk
    | None ->
      Option.iter Pktbuf.release fl.read_hold;
      fl.read_hold <- None;
      Mthread.Promise.return None)

let write fl buf =
  let open Mthread.Promise in
  match fl.error with
  | Some e -> fail e
  | None ->
    if fl.fin_queued then fail (Invalid_argument "Tcp.write: flow closed for sending")
    else begin
      let rec wait_for_room () =
        if fl.tx_buffered >= snd_buf_bytes then begin
          let p, u = wait () in
          Queue.add u fl.tx_waiters;
          bind p (fun () -> wait_for_room ())
        end
        else begin
          (* Ownership transfer: the stack queues the caller's buffer
             directly — no defensive copy — so the caller must not
             mutate it after [write]. Segmentation views alias it until
             the bytes are acknowledged. *)
          Queue.add buf fl.tx_chunks;
          fl.tx_buffered <- fl.tx_buffered + Bytestruct.length buf;
          try_output fl;
          return ()
        end
      in
      wait_for_room ()
    end

let close fl =
  let open Mthread.Promise in
  match fl.state with
  | Closed | Time_wait -> return ()
  | _ ->
    if not fl.fin_queued then begin
      fl.fin_queued <- true;
      (match fl.state with
      | Established -> fl.state <- Fin_wait_1
      | Close_wait -> fl.state <- Last_ack
      | _ -> ());
      try_output fl
    end;
    let p, u = wait () in
    fl.close_waker <- Some u;
    if fl.state = Closed then return () else p

let abort fl =
  if fl.state <> Closed then begin
    send_rst_for fl.t ~key:fl.key ~seq:fl.snd_nxt ~ack:fl.rcv_nxt;
    fail_flow fl Connection_reset
  end

let remote fl = (fl.key.k_rip, fl.key.k_rport)
let local_port fl = fl.key.k_port

let state_name fl =
  match fl.state with
  | Syn_sent -> "SYN_SENT"
  | Syn_rcvd -> "SYN_RCVD"
  | Established -> "ESTABLISHED"
  | Fin_wait_1 -> "FIN_WAIT_1"
  | Fin_wait_2 -> "FIN_WAIT_2"
  | Close_wait -> "CLOSE_WAIT"
  | Closing -> "CLOSING"
  | Last_ack -> "LAST_ACK"
  | Time_wait -> "TIME_WAIT"
  | Closed -> "CLOSED"

let bytes_received fl = fl.bytes_received
let cwnd fl = fl.cwnd

(* ---------- socket-table introspection (the `ss` plane) ---------- *)

type sock_info = {
  si_state : string;
  si_local_port : int;
  si_peer : (Ipaddr.t * int) option;  (* None for LISTEN rows *)
  si_recv_q : int;
  si_send_q : int;
  si_cwnd : int;
  si_ssthresh : int;
  si_srtt_ns : int;
  si_rto_ns : int;
  si_retx : int;
  si_age_ns : int;
}

(* One row per bound listener plus one per flow, deterministically sorted
   (local port, then peer) — hash-table iteration order must never leak
   into output that goldens or CLIs print. *)
let sockets t =
  let now = Engine.Sim.now t.sim in
  let listens =
    Hashtbl.fold
      (fun port _ acc ->
        {
          si_state = "LISTEN";
          si_local_port = port;
          si_peer = None;
          si_recv_q = 0;
          si_send_q = 0;
          si_cwnd = 0;
          si_ssthresh = 0;
          si_srtt_ns = 0;
          si_rto_ns = 0;
          si_retx = 0;
          si_age_ns = 0;
        }
        :: acc)
      t.listeners []
  in
  let flows =
    Hashtbl.fold
      (fun key fl acc ->
        {
          si_state = state_name fl;
          si_local_port = key.k_port;
          si_peer = Some (key.k_rip, key.k_rport);
          si_recv_q = fl.rx_buffered;
          (* send-q as ss reports it: bytes accepted from the writer and
             not yet acknowledged — buffered chunks plus bytes in flight. *)
          si_send_q = fl.tx_buffered + flight_size fl;
          si_cwnd = fl.cwnd;
          si_ssthresh = fl.ssthresh;
          si_srtt_ns = fl.srtt_ns;
          si_rto_ns = fl.rto_ns;
          si_retx = fl.retx_count;
          si_age_ns = now - fl.created_ns;
        }
        :: acc)
      t.flows []
  in
  List.sort
    (fun a b ->
      match compare a.si_local_port b.si_local_port with
      | 0 -> compare a.si_peer b.si_peer
      | c -> c)
    (listens @ flows)

let segments_sent t = t.segs_sent
let retransmissions t = t.retransmissions
let fast_retransmits t = t.fast_retransmits
let rto_fires t = t.rto_fires
let persist_probes t = t.persist_probes
let ooo_evictions t = t.ooo_evictions
let active_flows t = Hashtbl.length t.flows
