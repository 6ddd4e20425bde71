type handler = Http_wire.request -> Http_wire.response Mthread.Promise.t

(* Functor over the transport (paper §3, Fig. 2): the server speaks
   Device_sig.TCP only, so the same code serves over the unikernel
   netstack or Hostnet's host-kernel sockets; whoever uses a server
   applies it to the backend its target selects. *)
module Make (T : Device_sig.TCP) = struct
  type t = {
    sim : Engine.Sim.t;
    dom : Xensim.Domain.t option;
    request_ns : int;  (* per_request_cost_ns scaled by the platform's app_factor *)
    handler : handler;
    on_request : (latency_ns:int -> unit) option;
    mutable requests : int;
    mutable connections : int;
    mutable bad : int;
    mutable bytes_sent : int;
    latency : Trace.Hist.t option;  (* the http_request_ns summary, when registered *)
    (* drain state: a draining server has unlistened its port, finishes
       the request in flight on each open connection byte-for-byte, then
       closes instead of continuing the keep-alive loop. *)
    mutable bound : (T.t * int) option;
    mutable active : int;  (* connections currently being served *)
    mutable flows : (T.flow * bool ref) list;  (* open connections; flag = request in flight *)
    mutable draining : bool;
    mutable drained_wakers : unit Mthread.Promise.u list;
  }

  let ( >>= ) = Mthread.Promise.bind
  let return = Mthread.Promise.return

  let charge t =
    match t.dom with None -> return () | Some d -> Xensim.Domain.charge d ~cost:t.request_ns

  let serve_flow t ~busy flow =
    let reader = Device_sig.Reader.create ~read:(fun () -> T.read flow) in
    let rec loop () =
      Mthread.Promise.catch
        (fun () ->
          Http_wire.read_request reader >>= function
          | None -> T.close flow
          | Some req ->
            busy := true;
            t.requests <- t.requests + 1;
            let started = Engine.Sim.now t.sim in
            (* The span opens under the causal flow of the frame that
               completed the request and closes once the response bytes are
               accepted by TCP — the application layer of the waterfall. *)
            let sp =
              if Trace.enabled () then
                Trace.span
                  ?dom:(Option.map (fun d -> d.Xensim.Domain.id) t.dom)
                  ~cat:(Trace.User "http")
                  ~payload:[ ("path", Trace.String req.Http_wire.path) ]
                  "http.request"
              else Trace.span ~cat:(Trace.User "http") "http.request"
            in
            let respond () =
              charge t >>= fun () ->
              t.handler req >>= fun resp ->
              let ka = Http_wire.keep_alive req.Http_wire.headers in
              let resp =
                if ka then resp
                else
                  {
                    resp with
                    Http_wire.resp_headers =
                      ("Connection", "close") :: resp.Http_wire.resp_headers;
                  }
              in
              (* App-reply hop: the synchronous render of the response is
                 the request's exclusive application allocation. *)
              let render () = Bytestruct.of_string (Http_wire.render_response resp) in
              let data =
                if Trace.Prof.enabled () then
                  Trace.Prof.hop Trace.Prof.App ~vcpu_ns:t.request_ns render
                else render ()
              in
              t.bytes_sent <- t.bytes_sent + Bytestruct.length data;
              T.write flow data >>= fun () ->
              Trace.finish sp;
              let latency_ns = Engine.Sim.now t.sim - started in
              (match t.latency with Some h -> Trace.Hist.record h latency_ns | None -> ());
              (match t.on_request with None -> () | Some f -> f ~latency_ns);
              busy := false;
              if ka && not t.draining then loop () else T.close flow
            in
            (* The [app] frame covers the request charge and everything the
               handler defers, via the scheduler's frame capture. *)
            if Trace.Prof.enabled () then Trace.Prof.with_frame "app" respond else respond ())
        (function
          | Http_wire.Bad_request _ ->
            t.bad <- t.bad + 1;
            let resp = Http_wire.response ~status:400 "bad request" in
            T.write flow (Bytestruct.of_string (Http_wire.render_response resp)) >>= fun () ->
            T.close flow
          | Device_sig.Connection_reset | Mthread.Promise.Canceled -> return ()
          | e -> Mthread.Promise.fail e)
    in
    loop ()

  (* [register_metrics:false] keeps this server instance out of the
     registry — the /metrics exposition endpoint itself uses it so scrape
     traffic does not overwrite the workload server's per-domain entries. *)
  let create_detached sim ?dom ?(register_metrics = true) ?(per_request_cost_ns = 25_000)
      ?on_request handler =
    let mid = Option.map (fun d -> d.Xensim.Domain.id) dom in
    let registered = register_metrics && Trace.Metrics.enabled () in
    let t =
      {
        sim;
        dom;
        request_ns =
          (match dom with
          | Some d ->
            int_of_float
              (float_of_int per_request_cost_ns *. d.Xensim.Domain.platform.Platform.app_factor)
          | None -> per_request_cost_ns);
        handler;
        on_request;
        requests = 0;
        connections = 0;
        bad = 0;
        bytes_sent = 0;
        latency = (if registered then Some (Trace.Hist.create ()) else None);
        bound = None;
        active = 0;
        flows = [];
        draining = false;
        drained_wakers = [];
      }
    in
    if registered then begin
      Option.iter (Trace.Metrics.register_summary ?dom:mid "http_request_ns") t.latency;
      let reg name read =
        Trace.Metrics.register_read ?dom:mid ~kind:Trace.Metrics.Counter name read
      in
      reg "http_requests" (fun () -> t.requests);
      reg "http_connections" (fun () -> t.connections);
      reg "http_bad_requests" (fun () -> t.bad);
      reg "http_bytes_sent" (fun () -> t.bytes_sent)
    end;
    t

  let note_idle t =
    if t.active = 0 && t.draining then begin
      let ws = t.drained_wakers in
      t.drained_wakers <- [];
      List.iter (fun w -> Mthread.Promise.wakeup w ()) ws
    end

  let handle_flow t flow =
    t.connections <- t.connections + 1;
    t.active <- t.active + 1;
    let busy = ref false in
    t.flows <- (flow, busy) :: t.flows;
    Mthread.Promise.finalize
      (fun () -> serve_flow t ~busy flow)
      (fun () ->
        t.active <- t.active - 1;
        t.flows <- List.filter (fun (f, _) -> f != flow) t.flows;
        note_idle t;
        return ())

  let create sim ?dom ?register_metrics ?per_request_cost_ns ?on_request ~tcp ~port handler =
    let t = create_detached sim ?dom ?register_metrics ?per_request_cost_ns ?on_request handler in
    t.bound <- Some (tcp, port);
    T.listen tcp ~port (fun flow -> handle_flow t flow);
    t

  let of_router sim ?dom ?register_metrics ?per_request_cost_ns ?on_request ~tcp ~port router =
    create sim ?dom ?register_metrics ?per_request_cost_ns ?on_request ~tcp ~port (fun req ->
        match Router.dispatch router req.Http_wire.meth req.Http_wire.path with
        | Some handler_result -> handler_result req
        | None -> return (Http_wire.response ~status:404 "not found"))

  (* Stop accepting (close the listener), finish every request in flight
     byte-identically, reset connections parked between keep-alive
     requests (nothing of theirs is lost; a half-sent request head is the
     client's to retry, as with any real server close race), then
     resolve. Idempotent. *)
  let drain t =
    if not t.draining then begin
      t.draining <- true;
      (match t.bound with Some (tcp, port) -> T.unlisten tcp ~port | None -> ());
      List.iter (fun (flow, busy) -> if not !busy then T.abort flow) t.flows
    end;
    if t.active = 0 then return ()
    else begin
      let p, w = Mthread.Promise.wait () in
      t.drained_wakers <- w :: t.drained_wakers;
      p
    end

  let active_connections t = t.active
  let requests_served t = t.requests
  let connections_accepted t = t.connections
  let bad_requests t = t.bad
end
