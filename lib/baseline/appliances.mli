(** Conventional-OS web appliances — the Linux VMs the paper benchmarks
    Mirage against in §4.4 (Figures 12 and 13).

    Both reuse the real HTTP server and a transport satisfying
    {!Device_sig.TCP}; what makes them "conventional" is the cost
    structure: interpreter/IPC-heavy request handling, a bounded
    worker/file-descriptor pool that rejects overload (httperf's error
    count), and the [linux-pv] platform's syscall and copy taxes which
    the shared stack charges automatically. *)

module Make (T : Device_sig.TCP) : sig
  type t

  (** nginx + fastCGI + web.py serving the Twitter-like API (Figure 12's
      baseline). [handler] is the same application logic the Mirage
      appliance runs; the wrapper adds the Python-interpreter request cost
      and the fastCGI process hop, and aborts connections beyond 64
      concurrent ones (fd limit). *)
  val nginx_webpy :
    Engine.Sim.t ->
    dom:Xensim.Domain.t ->
    tcp:T.t ->
    port:int ->
    (Uhttp.Http_wire.request -> Uhttp.Http_wire.response Mthread.Promise.t) ->
    t

  (** Apache2 mpm-worker serving one static page (Figure 13's baseline);
      workers are sized to the domain's vCPUs. *)
  val apache_static :
    Engine.Sim.t ->
    dom:Xensim.Domain.t ->
    tcp:T.t ->
    port:int ->
    t

  val requests_served : t -> int
  val connections_rejected : t -> int
end

(** Per-request vCPU costs (exposed for the analytical crosscheck). *)

val webpy_request_cost_ns : int

(** The lean Mirage dynamic-web handler cost (§4.4), for symmetry. *)
val mirage_request_cost_ns : int

val mirage_static_cost_ns : int
