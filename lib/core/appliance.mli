(** The four appliances of the paper's evaluation (Table 2, Figure 14),
    as configurations over the library registry, plus a helper that boots
    an appliance with a network interface attached. *)

(** DNS server: UDP stack + DHCP + in-memory zone store (paper §4.2). *)
val dns_appliance : ?aslr_seed:int -> unit -> Config.t

(** Dynamic web server: HTTP + B-tree store + formats (paper §4.4). *)
val web_server : ?aslr_seed:int -> unit -> Config.t

val openflow_switch : ?aslr_seed:int -> unit -> Config.t
val openflow_controller : ?aslr_seed:int -> unit -> Config.t

(** The scraper unikernel of the monitoring plane (HTTP client + series
    store); not part of Table 2. *)
val monitor_appliance : ?aslr_seed:int -> unit -> Config.t

(** The L4 load-balancer unikernel of the fleet plane (forwarder + HTTP
    client for health checks); not part of Table 2. *)
val lb_appliance : ?aslr_seed:int -> unit -> Config.t

(** All four, in Table 2 order, with their display names. *)
val table2 : unit -> (string * Config.t) list

(** A booted appliance with its network plumbing, as its backend
    attached it. *)
type networked = { unikernel : Unikernel.t; net : Backend.net }

(** The netstack instance: the appliance's own on the direct backends,
    the modelled host kernel's beneath {!Posix_sockets}. *)
val stack : networked -> Netstack.Stack.t

val netif : networked -> Devices.Netif.t
val address : networked -> Netstack.Ipaddr.t

(** A running appliance as a first-class value: the network plumbing plus
    the lifecycle. Fleet control (the orchestrator's scale-in path, test
    teardown) needs domains that can be retired as cheaply as they boot;
    the handle owns that teardown and undoes at death everything boot did
    — advertisements withdrawn from the service directory, vif detached
    from the bridge, domain destroyed. *)
module Handle : sig
  type t

  type status =
    | Running
    | Draining  (** no longer accepting work; finishing requests in flight *)
    | Stopped

  val status : t -> status

  (** The network plumbing: unikernel, vif and stacks. *)
  val networked : t -> networked

  val unikernel : t -> Unikernel.t
  val domain : t -> Xensim.Domain.t
  val stack : t -> Netstack.Stack.t
  val netif : t -> Devices.Netif.t
  val address : t -> Netstack.Ipaddr.t

  (** The backend's stack under the {!Device_sig} contracts: what the
      appliance's servers are applied to, whatever the backend. *)
  val device : t -> Device_sig.stack

  (** The appliance name from the spec's config. *)
  val name : t -> string

  val spec : t -> Boot_spec.t

  (** Resolves once the appliance reaches [Stopped]. Appliance mains that
      should live exactly as long as the domain return this. *)
  val stopped : t -> unit Mthread.Promise.t

  (** Register a graceful-stop hook, typically a server's [drain]
      ([Uhttp.Server], [Dns.Server]). All hooks run concurrently when
      {!drain} is called; {!shutdown} skips them. *)
  val on_drain : t -> (unit -> unit Mthread.Promise.t) -> unit

  (** [advertise t ~port] lists the appliance in its bridge's service
      directory as [<name>.<domain id>] at its address and [port], and
      records the entry so {!shutdown} and {!drain} withdraw it.
      {!Exporter.mount} advertises the /metrics endpoint this way. *)
  val advertise : t -> port:int -> unit

  (** Immediate stop: withdraw advertisements, detach the vif (frames in
      flight vanish), destroy the domain with exit code 0. Idempotent. *)
  val shutdown : t -> unit Mthread.Promise.t

  (** Graceful stop: withdraw advertisements at once (no new discovery),
      run every {!on_drain} hook — stop accepting, finish requests in
      flight byte-identically — then {!shutdown}. Resolves when the
      appliance is [Stopped]. Idempotent. *)
  val drain : t -> unit Mthread.Promise.t
end

(** [start hv ts spec ~main] boots the unikernel described by [spec],
    attaches a NIC on its bridge, brings up the spec's network backend
    (static address or DHCP per [spec.ip]) and runs [main] once the
    network is ready. The returned promise resolves with the lifecycle
    handle as soon as the stack is up; [main] keeps running in the
    appliance (mains that should live until retirement end with
    [Handle.stopped]). Emits an [appliance.boot] trace span. *)
val start :
  Xensim.Hypervisor.t ->
  Xensim.Toolstack.t ->
  Boot_spec.t ->
  main:(Handle.t -> int Mthread.Promise.t) ->
  Handle.t Mthread.Promise.t
