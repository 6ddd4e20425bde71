(** Priority queue of timestamped events, the heart of the simulator.

    Events fire in (time, insertion-order) order; cancellation is
    O(log n) true deletion — the handle tracks its heap index, so a
    cancelled entry leaves the array (and its captured closure becomes
    collectable) immediately instead of lingering as a corpse to skip
    at pop time. Steady arm/cancel traffic therefore keeps the heap at
    exactly the live-event count, with no grow/shrink churn. *)

type t

(** Handle to a scheduled event, usable for cancellation. *)
type handle

val create : unit -> t

(** Number of pending events; O(1). *)
val length : t -> int

(** [push t ~time f] schedules [f] at absolute virtual [time]. *)
val push : t -> time:int -> (unit -> unit) -> handle

(** [cancel h] prevents the event from firing; idempotent, and a no-op
    once the event has fired. *)
val cancel : handle -> unit

(** Time of the earliest live event. *)
val peek_time : t -> int option

(** Pop the earliest live event, or [None] if the queue is empty. *)
val pop : t -> (int * (unit -> unit)) option

(** Current backing-array capacity — for tests asserting the array
    shrinks back after mass cancellation. *)
val capacity : t -> int
