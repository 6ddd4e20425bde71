(** One simulated machine: a seeded simulator, a hypervisor with a
    running dom0, one bridge and a toolstack. It names no network stack,
    so a program that only boots unikernels and joins them by shared
    memory (the multikernel example) links none. {!World} adds hosts and
    appliances on the bridge.

    A machine owns its per-domain state: domain ids restart with each
    hypervisor, so nothing keyed by a domain id may outlive the machine
    that allocated it. A unikernel's console and exit code live on its
    own record and domain ({!Unikernel.t}), not in process-wide tables. *)

type t = {
  sim : Engine.Sim.t;
  hv : Xensim.Hypervisor.t;
  dom0 : Xensim.Domain.t;  (** 512 MiB, Linux PV: every vif's backend *)
  bridge : Netsim.Bridge.t;
  toolstack : Xensim.Toolstack.t;
}

(** [create ()] builds a machine. [seed] defaults to 42; [seal_patch]
    (default true) is the hypervisor's seal extension; [static_fdb]
    (default false) pre-programs the bridge's forwarding table, as boot
    storms need. The bridge is made here, after dom0, because it splits
    the simulator's PRNG. *)
val create : ?seed:int -> ?seal_patch:bool -> ?static_fdb:bool -> unit -> t

(** A running guest domain with no devices, 64 MiB. [platform] defaults
    to [Platform.xen_extent], [vcpus] to 1. *)
val domain : t -> ?platform:Platform.t -> ?vcpus:int -> name:string -> unit -> Xensim.Domain.t

(** Run a promise to completion on the machine's simulator. *)
val run : t -> 'a Mthread.Promise.t -> 'a
