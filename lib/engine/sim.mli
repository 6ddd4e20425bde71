(** The discrete-event simulator: a virtual clock driving an event queue.

    All virtual times are integer nanoseconds. Every subsystem (hypervisor,
    network links, block devices, thread timers) schedules callbacks here. *)

type t

(** Scheduled-event handle; see {!cancel}. *)
type handle = Eventq.handle

(** [create ~seed ()] makes a simulator whose PRNG is seeded with [seed]. *)
val create : ?seed:int -> unit -> t

(** Current virtual time in nanoseconds. *)
val now : t -> int

(** The simulator's root PRNG. *)
val prng : t -> Prng.t

(** [schedule t ~delay f] runs [f] at [now t + delay] (clamped to now for
    negative delays). *)
val schedule : t -> delay:int -> (unit -> unit) -> handle

(** [at t ~time f] runs [f] at absolute virtual [time] (clamped to now
    for past times). When tracing is enabled and a causal flow is ambient
    ([Trace.Flow.current]), the flow is captured here and restored for
    the duration of [f]; the profiler's current frame likewise. Every
    asynchronous hop (thread sleeps, vCPU charges, event-channel
    delivery, link latency, TCP retransmit and persist timers) is an
    event pushed here, so flow ids propagate across the whole stack
    without per-subsystem plumbing. *)
val at : t -> time:int -> (unit -> unit) -> handle

(** [cancel h] removes the event in O(log n); idempotent, and a no-op
    once it has fired. *)
val cancel : handle -> unit

(** Number of pending events, lane entries included. *)
val pending : t -> int

(** {1 Lanes}

    A [lane] is a FIFO of events whose times never decrease: a vCPU's run
    queue, or any event source whose delay is a constant and that never
    cancels (the TCP 2-MSL linger, the event-channel upcall). Only a
    lane's head is in the event queue, so n queued events cost one heap
    entry, not n. Queueing on a lane keeps exactly the event, instant and
    tie order of {!at}: an entry's (time, insertion-order) key is drawn
    when it is queued, and flow and profiler frame are captured as {!at}
    captures them. A lane entry cannot be cancelled. *)

type lane

(** [lane t] is a fresh, empty lane on [t]. *)
val lane : t -> lane

(** [lane_at l ~time f] runs [f] at absolute [time] (clamped to now), as
    [at] would, behind the entries already on [l].
    @raise Invalid_argument if [time] is before the last entry's. *)
val lane_at : lane -> time:int -> (unit -> unit) -> unit

(** Entries queued on the lane and not yet fired. *)
val lane_length : lane -> int

(** [run t] executes events until the queue drains.
    @param until stop (leaving later events pending) once the clock would
    pass this absolute time. *)
val run : ?until:int -> t -> unit

(** [step t] executes the single earliest event; returns [false] when the
    queue was empty. *)
val step : t -> bool

(** Stop the current [run] after the in-flight event completes. *)
val stop : t -> unit

(** {1 Per-domain vCPU accounting}

    The hypervisor's scheduler (see [Xensim.Domain]) reports every vCPU
    slice it reserves: [run_ns] of execution plus [wait_ns] of wakeup
    latency (time between becoming runnable and being scheduled, i.e.
    queueing behind earlier reservations and other domains on the shared
    physical cores). Always on — three field updates per slice — so
    utilisation is available even without tracing. *)

type vcpu_totals = {
  vt_dom : int;
  vt_run_ns : int;  (** total vCPU execution time *)
  vt_wait_ns : int;  (** total wakeup/queueing latency *)
  vt_slices : int;  (** number of reservations *)
}

(** One domain's accumulator; a domain looks it up once and keeps it. *)
type vcpu_acc

(** [vcpu_acc t ~dom] is [dom]'s accumulator, created (and, with metrics
    on, registered) on first use. *)
val vcpu_acc : t -> dom:int -> vcpu_acc

(** [vcpu_slice a ~run_ns ~wait_ns] records one slice. *)
val vcpu_slice : vcpu_acc -> run_ns:int -> wait_ns:int -> unit

(** Accumulated per-domain totals, sorted by domain id. *)
val vcpu_totals : t -> vcpu_totals list

(** Time-unit helpers (all return nanoseconds). *)

val ns : int -> int
val us : int -> int
val ms : int -> int
val sec : int -> int

(** Nanoseconds to floating-point seconds / milliseconds. *)
val to_sec : int -> float

val to_ms : int -> float
