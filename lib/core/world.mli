(** One simulated machine: a seeded simulator, a hypervisor with a
    running dom0, one bridge and a toolstack, plus the hosts and
    appliances a scenario adds to it. Benchmarks, tests, examples and the
    CLI build every world here, so a world, a host and an appliance mean
    the same thing everywhere.

    A world owns its per-domain state: domain ids restart with each
    hypervisor, so nothing keyed by a domain id may outlive the world
    that allocated it. A unikernel's console and exit code live on its
    own record and domain ({!Unikernel.t}), not in process-wide tables. *)

type t = {
  sim : Engine.Sim.t;
  hv : Xensim.Hypervisor.t;
  dom0 : Xensim.Domain.t;  (** 512 MiB, Linux PV: every vif's backend *)
  bridge : Netsim.Bridge.t;
  toolstack : Xensim.Toolstack.t;
}

(** [create ()] builds a world. [seed] defaults to 42; [seal_patch]
    (default true) is the hypervisor's seal extension; [static_fdb]
    (default false) pre-programs the bridge's forwarding table, as boot
    storms need. *)
val create : ?seed:int -> ?seal_patch:bool -> ?static_fdb:bool -> unit -> t

(** [static_ip "10.0.0.9"] is that address on a /24 with no gateway. *)
val static_ip : string -> Netstack.Ipv4.config

(** A running guest domain with no devices, 64 MiB. [platform] defaults
    to [Platform.xen_extent], [vcpus] to 1. *)
val domain : t -> ?platform:Platform.t -> ?vcpus:int -> name:string -> unit -> Xensim.Domain.t

(** A plain guest: a running domain, a NIC on the bridge, a PV vif
    through dom0 and a static-IP stack. *)
type host = {
  dom : Xensim.Domain.t;
  nic : Netsim.Nic.t;
  netif : Devices.Netif.t;
  stack : Netstack.Stack.t;
}

(** [host w ~name ~ip ()] brings up a guest ({!domain}) and runs the
    simulator until its stack is ready. [account_cpu:false] detaches the
    stack from the domain's vCPU model: an infinitely fast load
    generator. [bandwidth_bps]/[latency_ns] default to the bridge's NIC
    defaults, [announce] to the stack's. The NIC's MAC is
    [100 + domain id]. *)
val host :
  t ->
  ?platform:Platform.t ->
  ?vcpus:int ->
  ?account_cpu:bool ->
  ?bandwidth_bps:int ->
  ?latency_ns:int ->
  ?announce:bool ->
  name:string ->
  ip:string ->
  unit ->
  host

(** [appliance w ~config ~ip ~main] boots [config] through a
    {!Boot_spec} on this world's bridge and {!Appliance.start}, and runs
    the simulator until its stack is up. *)
val appliance :
  t ->
  config:Config.t ->
  ip:string ->
  main:(Appliance.Handle.t -> int Mthread.Promise.t) ->
  unit ->
  Appliance.Handle.t

(** Run a promise to completion inside the world. *)
val run : t -> 'a Mthread.Promise.t -> 'a
