(* Which side of the wire a tapped frame was seen on: [Tx] as it leaves
   the sending NIC (before the fault layer — dropped frames are still
   observed leaving, exactly like a capture on the sending host), [Rx] as
   it is delivered to a receiving NIC (post-fault: corrupted bytes,
   duplicates and reordering are visible; flooded frames produce one Rx
   observation per receiving port). *)
type dir = Tx | Rx

(* The forwarding table keys a MAC by its 48 bits as an [int], read
   straight from the frame: no string per lookup. *)
let mac_key m =
  (String.get_uint16_be m 0 lsl 32) lor (String.get_uint16_be m 2 lsl 16) lor String.get_uint16_be m 4

let frame_mac_key f off =
  (Bytestruct.BE.get_uint16 f off lsl 32) lor Bytestruct.BE.get_uint32_int f (off + 2)

let broadcast_key = 0xFFFF_FFFF_FFFF

type tap_handle = int

let mac_of_int i =
  (* 0x02 prefix: locally administered, unicast. *)
  let b = Bytes.create 6 in
  Bytes.set b 0 '\x02';
  Bytes.set b 1 (Char.chr ((i lsr 24) land 0xff));
  Bytes.set b 2 (Char.chr ((i lsr 16) land 0xff));
  Bytes.set b 3 (Char.chr ((i lsr 8) land 0xff));
  Bytes.set b 4 (Char.chr (i land 0xff));
  Bytes.set b 5 '\x01';
  Bytes.to_string b

module Faults = struct
  type gilbert_elliott = {
    p_good_bad : float;
    p_bad_good : float;
    loss_good : float;
    loss_bad : float;
    slot_ns : int;
  }

  let burst_loss ~avg_loss ~burst_len =
    if avg_loss < 0.0 || avg_loss >= 1.0 then invalid_arg "Faults.burst_loss: avg_loss in [0,1)";
    let p_bad_good = 1.0 /. float_of_int (max 1 burst_len) in
    let p_good_bad = avg_loss *. p_bad_good /. (1.0 -. avg_loss) in
    { p_good_bad; p_bad_good; loss_good = 0.0; loss_bad = 1.0; slot_ns = 100_000 }

  type t = {
    ge : gilbert_elliott option;
    reorder_p : float;
    reorder_extra_ns : int;
    dup_p : float;
    corrupt_p : float;
    jitter_ns : int;
    flap : (int * int * int) option;
    drop_when : (now_ns:int -> nth:int -> Bytestruct.t -> bool) option;
  }

  let none =
    {
      ge = None;
      reorder_p = 0.0;
      reorder_extra_ns = 0;
      dup_p = 0.0;
      corrupt_p = 0.0;
      jitter_ns = 0;
      flap = None;
      drop_when = None;
    }

  let make ?ge ?reorder ?duplicate ?corrupt ?jitter_ns ?flap ?drop_when () =
    let reorder_p, reorder_extra_ns =
      match reorder with None -> (0.0, 0) | Some (p, d) -> (p, max 1 d)
    in
    (match flap with
    | Some (_, down, period) when down <= 0 || period <= down ->
      invalid_arg "Faults.make: flap needs 0 < down_ns < period_ns"
    | _ -> ());
    {
      ge;
      reorder_p;
      reorder_extra_ns;
      dup_p = Option.value duplicate ~default:0.0;
      corrupt_p = Option.value corrupt ~default:0.0;
      jitter_ns = Option.value jitter_ns ~default:0;
      flap;
      drop_when;
    }
end

type nic = {
  id : int;  (* bridge-local link id, stable for the port's lifetime *)
  mac : string;
  bandwidth_bps : int;
  latency_ns : int;
  mutable loss : float;
  bridge : bridge;
  mutable rx : (Bytestruct.t -> unit) option;
  mutable tx_free_at : int;
  mutable frames_sent : int;
  mutable frames_received : int;
  mutable bytes_sent : int;
  (* fault-injection state (see {!Faults}); [fault_prng] is split from the
     bridge PRNG at [set_faults] time so each schedule replays bit-for-bit
     from the simulation seed, independently of other links. *)
  mutable faults : Faults.t;
  mutable fault_prng : Engine.Prng.t;
  mutable ge_bad : bool;
  mutable ge_last_ns : int;
  mutable fault_nth : int;
  (* false once the port is detached (its domain destroyed): frames from
     it vanish at the wire and the bridge never delivers to it again. *)
  mutable attached : bool;
}

and bridge = {
  sim : Engine.Sim.t;
  prng : Engine.Prng.t;
  mutable nics : nic list;
  mutable nic_count : int;  (* physical length of [nics], O(1) *)
  (* Detached ports stay in [nics] (deliver skips them) and are swept out
     lazily once they outnumber live ones — O(1) amortised detach instead
     of an O(ports) filter per domain teardown. *)
  mutable detached_count : int;
  (* Pre-program MAC → port at [new_nic] time (like static fdb entries on
     a Xen vif): a 10⁴-port boot storm never floods to learn addresses,
     which would otherwise cost O(ports) deliveries per unknown frame. *)
  static_fdb : bool;
  table : nic Engine.Inttbl.t;  (* learned MAC (as [mac_key]) -> port *)
  mutable forwarded : int;
  mutable flooded : int;
  mutable dropped : int;
  mutable burst_dropped : int;
  mutable flap_dropped : int;
  mutable script_dropped : int;
  mutable corrupted : int;
  mutable duplicated : int;
  mutable reordered : int;
  mutable taps : (int * (dir:dir -> link:int -> time_ns:int -> Bytestruct.t -> unit)) list;
  mutable tap_seq : int;
  mutable nic_seq : int;
  (* Service directory keyed by name for O(1) advertise/withdraw; the seq
     stamp reconstructs the historical enumeration order (oldest
     advertisement first, re-advertising moves a name to the end). *)
  services : (string, int * string * int) Hashtbl.t;  (* name -> seq, ip, port *)
  mutable ad_seq : int;
}

type fault_counts = {
  fc_burst_dropped : int;
  fc_flap_dropped : int;
  fc_script_dropped : int;
  fc_corrupted : int;
  fc_duplicated : int;
  fc_reordered : int;
}

module Nic = struct
  type t = nic

  let mac t = t.mac
  let id t = t.id
  let frames_sent t = t.frames_sent
  let frames_received t = t.frames_received
  let bytes_sent t = t.bytes_sent
  let set_rx t f = t.rx <- Some f

  let deliver t frame ~time =
    if t.attached then begin
      t.frames_received <- t.frames_received + 1;
      (match t.bridge.taps with
      | [] -> ()
      | taps -> List.iter (fun (_, f) -> f ~dir:Rx ~link:t.id ~time_ns:time frame) taps);
      match t.rx with None -> () | Some f -> f frame
    end

  (* Bridge-side arrival: learn the source port, forward or flood. *)
  let forward b src_nic frame ~time =
    Engine.Inttbl.replace b.table (frame_mac_key frame 6) src_nic;
    let dst = frame_mac_key frame 0 in
    let flood () =
      b.flooded <- b.flooded + 1;
      List.iter (fun n -> if n != src_nic then deliver n frame ~time) b.nics
    in
    if dst = broadcast_key then flood ()
    else
      match Engine.Inttbl.find b.table dst with
      | port when not port.attached ->
        (* Stale entry for a detached port, cleaned lazily here rather
           than by an O(table) sweep at detach time: behaves exactly as
           if detach had flushed it (unknown destination → flood). *)
        Engine.Inttbl.remove b.table dst;
        flood ()
      | port when port != src_nic ->
        b.forwarded <- b.forwarded + 1;
        deliver port frame ~time
      | _ -> ()
      | exception Not_found -> flood ()

  (* One [netsim.fault.*] event per injected fault, so a trace of a
     chaotic run explains every retransmit the TCP layer records; the
     bridge's [fault_counts] hold the totals whether or not tracing is on. *)
  let trace_fault t name =
    if Trace.enabled () then Trace.emit ~cat:Trace.Net ~payload:[ ("link", Trace.Int t.id) ] name

  (* Single-bit corruption, restricted to the IP packet body past the
     ethernet + IPv4 headers: this models the bit errors that evade the
     ethernet FCS and that the transport checksum must catch. Flipping
     header bytes of unprotected protocols (ARP) would wedge the world in
     ways no real NIC allows through. *)
  let maybe_corrupt t frame =
    let len = Bytestruct.length frame in
    if len > 34 && Bytestruct.BE.get_uint16 frame 12 = 0x0800 then begin
      let byte = 34 + Engine.Prng.int t.fault_prng (len - 34) in
      let bit = Engine.Prng.int t.fault_prng 8 in
      Bytestruct.set_uint8 frame byte (Bytestruct.get_uint8 frame byte lxor (1 lsl bit));
      t.bridge.corrupted <- t.bridge.corrupted + 1;
      trace_fault t "netsim.fault.corrupt"
    end

  let link_down faults ~time =
    match faults.Faults.flap with
    | Some (first, down_ns, period_ns) ->
      time >= first && (time - first) mod period_ns < down_ns
    | None -> false

  let send ?owner t frame =
    let len = Bytestruct.length frame in
    if len < 14 then invalid_arg "Netsim: frame shorter than an Ethernet header";
    if not t.attached then ()
    else
    let b = t.bridge in
    t.frames_sent <- t.frames_sent + 1;
    t.bytes_sent <- t.bytes_sent + len;
    (* Zero-copy wire: the frame view rides to the receiver as-is.
       Either the owner's refcount keeps the backing pktbuf out of its
       pool until delivery, or (raw senders) the buffer is fresh per
       send. Corruption is the one fault that writes, and it copies
       first — see below. *)
    let wire_frame = frame in
    let now = Engine.Sim.now b.sim in
    let serialisation = int_of_float (float_of_int (len * 8) /. float_of_int t.bandwidth_bps *. 1e9) in
    let start = max now t.tx_free_at in
    t.tx_free_at <- start + serialisation;
    let arrival = start + serialisation + t.latency_ns in
    (* Tx tap: the frame as it leaves this NIC, stamped with the moment
       serialisation begins — before the fault layer, so a capture on a
       lossy link still shows what the sender put on the wire. With an
       owner, observers see the backing pktbuf as the ambient current and
       can retain it instead of copying. One null check on the no-tap
       path. *)
    (match b.taps with
    | [] -> ()
    | taps ->
      let fire () = List.iter (fun (_, f) -> f ~dir:Tx ~link:t.id ~time_ns:start wire_frame) taps in
      (match owner with Some pb -> Pktbuf.with_current pb fire | None -> fire ()));
    let f = t.faults in
    let nth = t.fault_nth in
    t.fault_nth <- nth + 1;
    if Engine.Prng.float b.prng 1.0 < t.loss then b.dropped <- b.dropped + 1
    else if (match f.Faults.drop_when with Some p -> p ~now_ns:now ~nth wire_frame | None -> false)
    then begin
      b.dropped <- b.dropped + 1;
      b.script_dropped <- b.script_dropped + 1;
      trace_fault t "netsim.fault.script_drop"
    end
    else if link_down f ~time:start then begin
      b.dropped <- b.dropped + 1;
      b.flap_dropped <- b.flap_dropped + 1;
      trace_fault t "netsim.fault.flap_drop"
    end
    else begin
      (* Gilbert–Elliott channel. The chain advances one step per [slot_ns]
         of link time (at least one per frame): a channel in the Bad state
         recovers during idle gaps, so a sender retransmitting on a
         backed-off RTO is not doomed to meet the same burst forever. The
         k-step state is sampled in closed form with one PRNG draw:
         P(bad after k) = pi_b + (b0 - pi_b)·lambda^k, lambda = 1-p_gb-p_bg. *)
      let ge_drop =
        match f.Faults.ge with
        | None -> false
        | Some g ->
          let p_gb = g.Faults.p_good_bad and p_bg = g.Faults.p_bad_good in
          let steps = max 1 ((start - t.ge_last_ns) / max 1 g.Faults.slot_ns) in
          t.ge_last_ns <- start;
          let p_bad =
            if p_gb +. p_bg <= 0.0 then if t.ge_bad then 1.0 else 0.0
            else begin
              let pi_b = p_gb /. (p_gb +. p_bg) in
              let lam = 1.0 -. p_gb -. p_bg in
              let lamk = if lam = 0.0 then 0.0 else lam ** float_of_int steps in
              let b0 = if t.ge_bad then 1.0 else 0.0 in
              pi_b +. ((b0 -. pi_b) *. lamk)
            end
          in
          t.ge_bad <- Engine.Prng.float t.fault_prng 1.0 < p_bad;
          let p = if t.ge_bad then g.Faults.loss_bad else g.Faults.loss_good in
          p > 0.0 && Engine.Prng.float t.fault_prng 1.0 < p
      in
      if ge_drop then begin
        b.dropped <- b.dropped + 1;
        b.burst_dropped <- b.burst_dropped + 1;
        trace_fault t "netsim.fault.burst_drop"
      end
      else begin
        let wire_frame, owner =
          if f.Faults.corrupt_p > 0.0 && Engine.Prng.float t.fault_prng 1.0 < f.Faults.corrupt_p
          then begin
            (* Copy-on-mutate: corruption gets a private copy so the
               sender's buffer (possibly pooled, possibly shared with a
               duplicate delivery already in flight) stays pristine. *)
            let c = Bytestruct.copy wire_frame in
            maybe_corrupt t c;
            (c, None)
          end
          else (wire_frame, owner)
        in
        let arrival =
          if f.Faults.jitter_ns > 0 then arrival + Engine.Prng.int t.fault_prng f.Faults.jitter_ns
          else arrival
        in
        let arrival =
          if f.Faults.reorder_p > 0.0 && Engine.Prng.float t.fault_prng 1.0 < f.Faults.reorder_p
          then begin
            b.reordered <- b.reordered + 1;
            trace_fault t "netsim.fault.reorder";
            arrival + 1 + Engine.Prng.int t.fault_prng f.Faults.reorder_extra_ns
          end
          else arrival
        in
        let dispatch time =
          match owner with
          | None -> ignore (Engine.Sim.at b.sim ~time (fun () -> forward b t wire_frame ~time))
          | Some pb ->
            (* One reference per scheduled delivery: the pool cannot
               recycle the buffer while it is on the wire, and receivers
               can retain it past the delivery via the ambient. *)
            Pktbuf.retain pb;
            ignore
              (Engine.Sim.at b.sim ~time (fun () ->
                   Pktbuf.with_current pb (fun () -> forward b t wire_frame ~time);
                   Pktbuf.release pb))
        in
        dispatch arrival;
        if f.Faults.dup_p > 0.0 && Engine.Prng.float t.fault_prng 1.0 < f.Faults.dup_p then begin
          b.duplicated <- b.duplicated + 1;
          trace_fault t "netsim.fault.duplicate";
          let dup_at = arrival + 1 + Engine.Prng.int t.fault_prng 50_000 in
          dispatch dup_at
        end
      end
    end
end

module Bridge = struct
  type t = bridge

  let create ?(static_fdb = false) sim =
    {
      sim;
      prng = Engine.Prng.split (Engine.Sim.prng sim);
      nics = [];
      nic_count = 0;
      detached_count = 0;
      static_fdb;
      table = Engine.Inttbl.create 32;
      forwarded = 0;
      flooded = 0;
      dropped = 0;
      burst_dropped = 0;
      flap_dropped = 0;
      script_dropped = 0;
      corrupted = 0;
      duplicated = 0;
      reordered = 0;
      taps = [];
      tap_seq = 0;
      nic_seq = 0;
      services = Hashtbl.create 32;
      ad_seq = 0;
    }

  let new_nic t ?(bandwidth_bps = 1_000_000_000) ?(latency_ns = 30_000) ~mac () =
    if String.length mac <> 6 then invalid_arg "Netsim.Bridge.new_nic: MAC must be 6 bytes";
    let id = t.nic_seq in
    t.nic_seq <- id + 1;
    let nic =
      {
        id;
        mac;
        bandwidth_bps;
        latency_ns;
        loss = 0.0;
        bridge = t;
        rx = None;
        tx_free_at = 0;
        frames_sent = 0;
        frames_received = 0;
        bytes_sent = 0;
        faults = Faults.none;
        fault_prng = Engine.Prng.create ~seed:0 ();
        ge_bad = false;
        ge_last_ns = 0;
        fault_nth = 0;
        attached = true;
      }
    in
    t.nics <- nic :: t.nics;
    t.nic_count <- t.nic_count + 1;
    if t.static_fdb then Engine.Inttbl.replace t.table (mac_key mac) nic;
    nic

  (* Unplug a port: the NIC stops sending and receiving, its learned
     table entries are flushed, and it leaves the flood set. Models the
     toolstack tearing down a destroyed domain's vif.

     O(1) amortised: the port's own MAC entry goes now; entries learned
     for other source MACs on this port (rare) are evicted lazily at
     lookup in [Nic.forward], and the flood list is only compacted once
     detached ports outnumber live ones (relative order of survivors is
     preserved, so flood delivery order — and with it every downstream
     event — is unchanged). *)
  let detach t nic =
    if nic.attached then begin
      nic.attached <- false;
      nic.rx <- None;
      (let key = mac_key nic.mac in
       match Engine.Inttbl.find_opt t.table key with
       | Some port when port == nic -> Engine.Inttbl.remove t.table key
       | _ -> ());
      t.detached_count <- t.detached_count + 1;
      if t.detached_count * 2 > t.nic_count then begin
        t.nics <- List.filter (fun n -> n.attached) t.nics;
        t.nic_count <- t.nic_count - t.detached_count;
        t.detached_count <- 0
      end
    end

  let set_loss _t nic p = nic.loss <- p

  let set_faults t nic f =
    nic.faults <- f;
    nic.fault_prng <- Engine.Prng.split t.prng;
    nic.ge_bad <- false;
    nic.ge_last_ns <- Engine.Sim.now t.sim;
    nic.fault_nth <- 0

  let forwarded t = t.forwarded
  let flooded t = t.flooded
  let dropped t = t.dropped

  let fault_counts t =
    {
      fc_burst_dropped = t.burst_dropped;
      fc_flap_dropped = t.flap_dropped;
      fc_script_dropped = t.script_dropped;
      fc_corrupted = t.corrupted;
      fc_duplicated = t.duplicated;
      fc_reordered = t.reordered;
    }

  let tap t f =
    let h = t.tap_seq in
    t.tap_seq <- h + 1;
    t.taps <- (h, f) :: t.taps;
    h

  let untap t h = t.taps <- List.filter (fun (h', _) -> h' <> h) t.taps

  (* An mDNS-like service directory kept on the switch: appliances that
     expose an endpoint advertise (name, ip, port) at boot and the monitor
     discovers its scrape targets here instead of being configured with
     addresses. Re-advertising a name replaces the entry — and restamps
     it, so it moves to the end of the enumeration just as it did when
     this was an assoc list. O(1) either way, where the assoc-list
     rebuild was O(services) per boot/teardown. *)
  let advertise t ~name ~ip ~port =
    Hashtbl.replace t.services name (t.ad_seq, ip, port);
    t.ad_seq <- t.ad_seq + 1

  (* Deregistration on domain shutdown: a destroyed exporter must not
     linger in the directory, or the monitor keeps scraping a corpse
     (stale-series → rate-0 masks the death). *)
  let withdraw t ~name = Hashtbl.remove t.services name

  (* Advertisement order (oldest first): deterministic for a deterministic
     boot sequence. Enumeration pays an O(n log n) sort so that the hot
     advertise/withdraw path doesn't. *)
  let services t =
    Hashtbl.fold (fun name (seq, ip, port) acc -> (seq, (name, ip, port)) :: acc) t.services []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
    |> List.map snd
end
