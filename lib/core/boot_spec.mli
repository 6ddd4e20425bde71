(** Declarative description of a networked appliance boot.

    Collapses a long argument list into one value that can be built once,
    logged, and reused across benchmark iterations. Construct with
    {!make}, which fills in the defaults ([`Async] toolstack, 32 MiB,
    DHCP, {!Xen_direct.backend}). *)

type t = {
  backend_dom : Xensim.Domain.t;  (** dom0-side backend for the NIC *)
  bridge : Netsim.Bridge.t;  (** bridge the NIC attaches to *)
  config : Config.t;  (** appliance library configuration *)
  mode : [ `Sync | `Async ];  (** toolstack build mode *)
  mem_mib : int;
  ip : Netstack.Ipv4.config option;  (** static address, or DHCP when [None] *)
  backend : Backend.t;  (** the network backend the appliance is built against *)
  quiet_net : bool;
      (** suppress the gratuitous ARP broadcast a static-IP stack sends
          at bring-up ([Netstack.Stack.create ~announce:false]). Boot
          storms set this and pre-seed ARP caches instead: 10⁴
          simultaneous announcements over a 10⁴-port bridge would be
          10⁸ frame deliveries before the first request. Default
          [false] — normal appliances keep announcing. *)
  rx_slots : int;
      (** receive credit the vif posts on its ring, as netfront's
          negotiated ring size: the RX ring page holds the smallest power
          of two above [min rx_slots 511] slots. The default (512)
          absorbs several TCP windows of burst; boot storms use a small
          ring because 10⁴ vifs times 511 posted grants is millions of
          live grant-table entries for appliances that each serve a
          handful of frames. Only {!Xen_direct.backend} reads it: neither
          POSIX backend has a ring. *)
  plan : Specialize.plan Lazy.t;
      (** [config]'s libraries, specialised for the backend's target and
          verified ({!Unikernel.configure}), on first use. {!clone}
          shares it, so a fleet of replicas configures once; each
          replica still links its own layout. Forcing it raises
          {!Unikernel.Build_error} when verification fails. *)
}

(** Smart constructor; defaults: [mode = `Async], [mem_mib = 32],
    [ip = None] (DHCP), [backend = Xen_direct.backend], [quiet_net = false],
    [rx_slots = 512].
    @raise Invalid_argument if [mem_mib <= 0]. *)
val make :
  backend_dom:Xensim.Domain.t ->
  bridge:Netsim.Bridge.t ->
  config:Config.t ->
  ?mode:[ `Sync | `Async ] ->
  ?mem_mib:int ->
  ?ip:Netstack.Ipv4.config ->
  ?backend:Backend.t ->
  ?quiet_net:bool ->
  ?rx_slots:int ->
  unit ->
  t

(** [clone t ~name ?ip ()] stamps out a fleet replica from a template
    spec: same libraries, bridge, backend, memory, toolstack mode and
    network settings, but a fresh appliance name, its own address
    ([ip], else the template's), and an ASR seed re-derived from the
    name unless [aslr_seed] is given (each replica links a
    differently-randomised image, deterministically). A spec says
    nothing about /metrics: a replica that should be scraped mounts the
    exporter from its [main] ({!Exporter.mount}). The fleet's shard
    factory and the boot storms build every replica this way. *)
val clone : t -> name:string -> ?ip:Netstack.Ipv4.config -> ?aslr_seed:int -> unit -> t
