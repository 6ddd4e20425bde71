type engine = Mirage of { memoize : bool } | Bind_like | Nsd_like

(* Per-query engine cost models (ns of vCPU per query, excluding the
   driver/stack per-packet costs already charged by the device layer).

   Calibration against Figure 10, accounting for the rx+tx path costs of
   each platform (~5.7 us/query on linux-pv, ~4.6 us on xen-direct,
   ~47-55 us on MiniOS with its select(2) penalty):

   - bind_like: a general-purpose database with per-query feature checks;
     ~8 us plus a small O(log n) term. The paper found BIND
     *consistently slower on small zones* without identifying the cause
     (their footnote 6); we reproduce that observed shape with an
     empirical 1/n term calibrated to their curve, not a mechanism claim.
   - nsd_like: precompiled answer database, ~8.6 us, nearly flat in n.
   - mirage no-memo: type-safe parse + functional-map lookup + fresh
     encode: ~18 us + 0.35 us * log2 n.
   - mirage memo hit: hashtable probe + id patch + send of the cached
     buffer: ~8.2 us; a miss pays the no-memo path plus insertion. *)

let log2 n = if n <= 1 then 0.0 else log (float_of_int n) /. log 2.0

let query_cost_ns engine ~zone_entries ~platform ~memo_hit =
  let app = platform.Platform.app_factor in
  let base =
    match engine with
    | Bind_like ->
      8_000.0 +. (380.0 *. log2 zone_entries) +. (400_000.0 /. float_of_int (max 1 zone_entries))
    | Nsd_like -> 8_600.0 +. (60.0 *. log2 zone_entries)
    | Mirage { memoize } ->
      if memoize && memo_hit then 8_200.0
      else begin
        let lookup = 18_000.0 +. (350.0 *. log2 zone_entries) in
        if memoize then lookup +. 1_000.0 else lookup
      end
  in
  int_of_float (base *. app)

(* The answering path is a functor over the datagram transport: the same
   decode/lookup/encode/memo code serves over the unikernel netstack or
   Hostnet's host-kernel sockets. *)
module Make (U : Device_sig.UDP) = struct
  type t = {
    sim : Engine.Sim.t;
    dom : Xensim.Domain.t option;
    udp : U.t;
    port : int;
    db : Db.t;
    engine : engine;
    memo : Memo.t option;
    mutable served : int;
    mutable decode_failures : int;
    mutable draining : bool;
  }

  let charge t ~memo_hit =
    match t.dom with
    | None -> ()
    | Some d ->
      let cost =
        query_cost_ns t.engine ~zone_entries:(Db.entries t.db) ~platform:d.Xensim.Domain.platform
          ~memo_hit
      in
      if Trace.Prof.enabled () then Trace.Prof.add_vcpu cost;
      if Trace.enabled () then begin
        (* Retro-span from enqueue to the end of the vCPU slice: the
           application layer of a DNS flow's waterfall (the response is
           sent concurrently; the query cost gates only subsequent work). *)
        let queued = Engine.Sim.now t.sim in
        Xensim.Domain.charge_k d ~cost (fun () ->
            if Trace.enabled () then
              Trace.record_span_ns ~dom:d.Xensim.Domain.id
                ~payload:[ ("memo_hit", Trace.Bool memo_hit) ]
                ~cat:(Trace.User "dns") "dns.query"
                (Engine.Sim.now t.sim - queued))
      end
      else Xensim.Domain.book d ~cost

  let respond t ~src ~src_port ~dst_port encoded =
    Mthread.Promise.async (fun () ->
        U.sendto t.udp ~src_port:dst_port ~dst:src ~dst_port:src_port encoded)

  (* The synchronous application work for one datagram: decode, memo or
     database lookup, encode. [None] when nothing is to be sent. *)
  let answer t payload =
    match Dns_wire.decode payload with
    | exception Dns_wire.Decode_error _ ->
      t.decode_failures <- t.decode_failures + 1;
      None
    | msg when msg.Dns_wire.flags.Dns_wire.qr -> None (* ignore stray responses *)
    | { Dns_wire.questions = [ q ]; id; _ } ->
      t.served <- t.served + 1;
      let qname = q.Dns_wire.qname and qtype = q.Dns_wire.qtype in
      if Trace.enabled () then
        Trace.emit
          ?dom:(Option.map (fun d -> d.Xensim.Domain.id) t.dom)
          ~cat:(Trace.User "dns")
          ~payload:[ ("qname", Trace.String (Dns_name.to_string qname)) ]
          "dns.handle";
      let memo_hit, encoded =
        match t.memo with
        | Some cache -> (
          match Memo.find cache ~qname ~qtype with
          | Some cached ->
            Dns_wire.patch_id cached id;
            (true, cached)
          | None ->
            let fresh = Dns_wire.encode (Db.answer t.db ~id q) in
            Memo.add cache ~qname ~qtype fresh;
            (false, fresh))
        | None -> (false, Dns_wire.encode (Db.answer t.db ~id q))
      in
      charge t ~memo_hit;
      Some encoded
    | msg ->
      (* zero or multiple questions: FORMERR *)
      t.served <- t.served + 1;
      let err =
        {
          Dns_wire.id = msg.Dns_wire.id;
          flags = Dns_wire.response_flags ~aa:false ~rcode:Dns_wire.Format_error;
          questions = [];
          answers = [];
          authorities = [];
          additionals = [];
        }
      in
      charge t ~memo_hit:false;
      Some (Dns_wire.encode err)

  (* App hop: each datagram's [answer], charged the engine's query cost;
     sending the response is the stack's work. *)
  let handle t ~src ~src_port ~dst_port ~payload =
    let reply =
      if Trace.Prof.enabled () then
        Trace.Prof.hop Trace.Prof.App ~vcpu_ns:0 (fun () -> answer t payload)
      else answer t payload
    in
    match reply with Some encoded -> respond t ~src ~src_port ~dst_port encoded | None -> ()

  let create sim ?dom ~udp ?(port = 53) ~db ~engine () =
    let memo = match engine with Mirage { memoize = true } -> Some (Memo.create ()) | _ -> None in
    let t =
      { sim; dom; udp; port; db; engine; memo; served = 0; decode_failures = 0; draining = false }
    in
    U.listen udp ~port (fun ~src ~src_port ~dst_port ~payload ->
        handle t ~src ~src_port ~dst_port ~payload);
    t

  (* Datagram drain is immediate: unlisten, and any answer already being
     charged to the vCPU still goes out ([respond] holds the socket, not
     the listener). Idempotent. *)
  let drain t =
    if not t.draining then begin
      t.draining <- true;
      U.unlisten t.udp ~port:t.port
    end;
    Mthread.Promise.return ()

  let queries_served t = t.served
  let decode_failures t = t.decode_failures
  let memo t = t.memo

  (* Concurrent queries of one resolver get distinct source ports while
     fewer than 0x4000 are in flight. *)
  module Client = struct
    type t = { sim : Engine.Sim.t; udp : U.t; mutable next_id : int }

    let create sim udp = { sim; udp; next_id = 1 }

    let query t ~server ?(port = 53) ~qname ~qtype () =
      let open Mthread.Promise in
      let udp = t.udp and sim = t.sim in
      let id = t.next_id land 0xffff in
      t.next_id <- t.next_id + 1;
      let src_port = 10000 + (t.next_id land 0x3fff) in
      let msg = Dns_wire.query ~id qname qtype in
      let p, u = wait () in
      U.listen udp ~port:src_port (fun ~src:_ ~src_port:_ ~dst_port:_ ~payload ->
          match Dns_wire.decode payload with
          | exception Dns_wire.Decode_error _ -> ()
          | reply when reply.Dns_wire.id = id && reply.Dns_wire.flags.Dns_wire.qr ->
            if wakener_pending u then wakeup u reply
          | _ -> ());
      let cleanup () =
        U.unlisten udp ~port:src_port;
        return ()
      in
      finalize
        (fun () ->
          bind (U.sendto udp ~src_port ~dst:server ~dst_port:port (Dns_wire.encode msg))
            (fun () ->
              catch
                (fun () ->
                  bind (with_timeout sim (Engine.Sim.sec 2) (fun () -> p)) (fun r -> return (Some r)))
                (function Timeout -> return None | e -> fail e)))
        cleanup
  end
end
