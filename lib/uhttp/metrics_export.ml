(* Prometheus-style /metrics exposition over any Device_sig.STACK.

   A sealed appliance has no shell or /proc to inspect, so the metrics
   registry (Trace.Metrics) is exported in-band: a tiny HTTP endpoint on
   the appliance's own stack renders the domain's snapshot as text, and
   the monitor appliance scrapes it over real simulated TCP — the scrape
   traffic contends with the workload exactly as production scrapes do.

   The internal Uhttp server opts out of metric registration
   ([register_metrics:false]) so the exposition path never overwrites
   the workload server's per-domain http_* series. *)

module Make (S : Device_sig.STACK) = struct
  module Http = Server.Make (S.Tcp)

  let mount sim ~dom ~port stack =
    let id = dom.Xensim.Domain.id in
    let scrapes = ref 0 in
    Trace.Metrics.register_read ~dom:id ~kind:Trace.Metrics.Counter "metrics_scrapes" (fun () ->
        !scrapes);
    let handler (req : Http_wire.request) =
      match req.Http_wire.path with
      | "/metrics" ->
        incr scrapes;
        Mthread.Promise.return
          (Http_wire.response
             ~headers:[ ("Content-Type", "text/plain; version=0.0.4") ]
             ~status:200
             (Trace.Metrics.to_text ~dom:id ()))
      | _ -> Mthread.Promise.return (Http_wire.response ~status:404 "not found")
    in
    ignore (Http.create sim ~dom ~register_metrics:false ~tcp:(S.tcp stack) ~port handler)
end
