(** A Xen domain (VM). Execution inside a domain is serialised through its
    single virtual CPU (the paper adopts the multikernel philosophy of one
    vCPU per unikernel, §3.1): virtual-time costs charged with {!charge}
    queue behind each other, which is what produces CPU saturation in the
    appliance benchmarks. *)

type state = Building | Running | Blocked | Shutdown of int

type t = {
  id : int;
  name : string;
  mem_mib : int;
  platform : Platform.t;
  sim : Engine.Sim.t;
  stats : Xstats.t;
  pagetable : Pagetable.t;
  mutable state : state;
  cpu_free_at : int array;  (** per-vCPU: virtual time at which it next idles *)
  mutable busy_ns : int;  (** cumulative vCPU busy time, all vCPUs *)
  lanes : Engine.Sim.lane array;  (** per-vCPU run queue of {!charge_k} continuations *)
  mutable acc : Engine.Sim.vcpu_acc option;  (** the engine's accumulator, from the first slice *)
  mutable slice_start : int;  (** start of the slice reserved last *)
}

(** [vcpus] defaults to 1 — the multikernel one-vCPU-per-unikernel model;
    conventional guests in Figure 13 use more. *)
val create :
  sim:Engine.Sim.t ->
  stats:Xstats.t ->
  id:int ->
  name:string ->
  mem_mib:int ->
  platform:Platform.t ->
  ?vcpus:int ->
  unit ->
  t

val vcpus : t -> int

(** [charge_k d ~cost k] occupies the least-loaded vCPU for [cost] ns,
    queueing behind work already scheduled, and calls [k] when it has
    elapsed. On multi-vCPU domains the cost is inflated by a
    lock-contention factor (~15% per additional vCPU), the scaling-up
    penalty Figure 13 exhibits. [k] waits on the vCPU's run queue
    ({!Engine.Sim.lane_at}), so a backlog of slices is one event-queue
    entry; the packet path charges this way, so what waits out a busy
    vCPU's backlog is only what [k] closes over. *)
val charge_k : t -> cost:int -> (unit -> unit) -> unit

(** [book d ~cost] is [charge_k d ~cost ignore] for work whose end
    nothing waits for (a backend's kick, an application's compute):
    the same slice on the same vCPU, but untraced no event is queued.
    Traced, the slice's event is kept, so the trace records the same
    vcpu.wait/vcpu.run spans as {!charge_k}. *)
val book : t -> cost:int -> unit

(** Promise form of {!charge_k}: resolves when the slice has elapsed.
    Cancelling the promise does not give the slice back; the booked
    continuation still fires and finds the promise settled. *)
val charge : t -> cost:int -> unit Mthread.Promise.t

(** Fraction of virtual time [0..span] the vCPU was busy, given a span. *)
val utilisation : t -> span_ns:int -> float

(** Issue a hypercall: bumps counters and charges the crossing cost. *)
val hypercall : t -> name:string -> unit

val shutdown : t -> exit_code:int -> unit
