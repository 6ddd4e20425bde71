(** A {!Machine} with the network on it: plain hosts and appliances on
    its bridge. Benchmarks, tests, examples and the CLI build every
    networked world here, so a world, a host and an appliance mean the
    same thing everywhere. *)

include module type of struct
  include Machine
end

(** [static_ip "10.0.0.9"] is that address on a /24 with no gateway. *)
val static_ip : string -> Netstack.Ipv4.config

(** A plain guest: a running domain, a NIC on the bridge, a PV vif
    through dom0 and a static-IP stack. *)
type host = {
  dom : Xensim.Domain.t;
  nic : Netsim.Nic.t;
  netif : Devices.Netif.t;
  stack : Netstack.Stack.t;
}

(** [host w ~name ~ip ()] brings up a guest ({!Machine.domain}) and runs the
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
