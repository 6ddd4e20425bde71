(** Priority queue of timestamped events, the heart of the simulator.

    Events fire in (time, insertion-order) order. The queue is a 4-ary
    min-heap whose time and insertion keys sit unboxed in [int] arrays
    beside the handles, with entries moved by hole sifting, so a
    comparison never dereferences a handle. Reading the earliest time
    and taking the earliest event allocate nothing; [push] allocates
    only the returned handle.

    Cancellation is O(log n) true deletion — the handle tracks its heap
    slot, so a cancelled entry leaves the arrays (and its captured
    closure becomes collectable) immediately instead of lingering as a
    corpse to skip at pop time. The arrays double when full and halve
    only once at most an eighth full, so a pending count that swings
    within a factor of four keeps one allocation, with no grow/shrink
    churn. *)

type t

(** Handle to a scheduled event, usable for cancellation. *)
type handle

val create : unit -> t

(** Number of pending events; O(1). *)
val length : t -> int

(** [push t ~time f] schedules [f] at absolute virtual [time]. *)
val push : t -> time:int -> (unit -> unit) -> handle

(** {1 Keys drawn ahead}

    A run queue (see [Sim.lane_at]) keeps its entries out of the heap and
    lets only its head in. Each entry's key is drawn when the entry is
    queued, so it ties exactly as a direct [push] at that moment would;
    the head enters under one handle that is pushed again for every
    entry. *)

(** [reserve_seq t] draws the insertion key [push] would draw now. *)
val reserve_seq : t -> int

(** [handle t f] makes a handle that is not scheduled; [push_keyed]
    schedules it, as often as it has fired in between. *)
val handle : t -> (unit -> unit) -> handle

(** [push_keyed t h ~time ~seq] schedules [h] under key [(time, seq)].
    @raise Invalid_argument if [h] is already queued or belongs to
    another queue. *)
val push_keyed : t -> handle -> time:int -> seq:int -> unit

(** [cancel h] prevents the event from firing; idempotent, and a no-op
    once the event has fired. *)
val cancel : handle -> unit

(** Time of the earliest pending event.
    @raise Invalid_argument if the queue is empty. *)
val min_time : t -> int

(** Remove the earliest pending event and return its action (the
    caller runs it).
    @raise Invalid_argument if the queue is empty. *)
val take : t -> (unit -> unit)

(** Current backing-array capacity — for tests asserting the arrays
    shrink back after mass cancellation and hold steady under load. *)
val capacity : t -> int
