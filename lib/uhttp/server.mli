(** HTTP/1.1 server over any {!Device_sig.TCP} transport, with keep-alive.

    [per_request_cost_ns] is charged to the appliance's vCPU per request
    served (application work: routing, handler, rendering); the default
    models the lean Mirage dynamic-web path of §4.4.

    The server is a functor over the transport signature, applied where
    it is used ([Core.Apps.Net.Http] over the unikernel netstack), so
    this library never names a concrete backend. *)

type handler = Http_wire.request -> Http_wire.response Mthread.Promise.t

module Make (T : Device_sig.TCP) : sig
  type t

  (** When the metrics plane is enabled ([Trace.Metrics]), each server
      registers per-domain request/connection/error/bytes counters plus
      an [http_request_ns] latency summary; [register_metrics:false]
      opts an instance out (the /metrics exposition server uses this so
      scrape traffic does not pollute the workload's series).

      [on_request] is invoked after each response is accepted by the
      transport with the request's end-to-end service latency (parse →
      vCPU queueing → handler → render → write); the fleet scenarios hang
      windowed-percentile gauges off it without touching the cumulative
      metrics summary. *)
  val create :
    Engine.Sim.t ->
    ?dom:Xensim.Domain.t ->
    ?register_metrics:bool ->
    ?per_request_cost_ns:int ->
    ?on_request:(latency_ns:int -> unit) ->
    tcp:T.t ->
    port:int ->
    handler ->
    t

  (** A server not bound to any port: callers accept connections themselves
      and pass flows to {!handle_flow} (used by the baseline appliances,
      which gate accepts on a worker pool). *)
  val create_detached :
    Engine.Sim.t ->
    ?dom:Xensim.Domain.t ->
    ?register_metrics:bool ->
    ?per_request_cost_ns:int ->
    ?on_request:(latency_ns:int -> unit) ->
    handler ->
    t

  (** Serve one connection to completion (keep-alive loop). *)
  val handle_flow : t -> T.flow -> unit Mthread.Promise.t

  (** Convenience: serve a {!Router.t} of handlers, 404 otherwise. *)
  val of_router :
    Engine.Sim.t ->
    ?dom:Xensim.Domain.t ->
    ?register_metrics:bool ->
    ?per_request_cost_ns:int ->
    ?on_request:(latency_ns:int -> unit) ->
    tcp:T.t ->
    port:int ->
    (Http_wire.request -> Http_wire.response Mthread.Promise.t) Router.t ->
    t

  (** Graceful drain ([Core.Appliance.Handle.drain]'s server hook): close
      the listener, finish the request in flight on every connection
      byte-identically, reset connections idle between keep-alive
      requests, and resolve once no connection remains. Idempotent; a
      drained server never serves again. *)
  val drain : t -> unit Mthread.Promise.t

  (** Connections currently open (serving or parked). *)
  val active_connections : t -> int

  val requests_served : t -> int
  val connections_accepted : t -> int
  val bad_requests : t -> int
end
