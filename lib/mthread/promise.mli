(** Cooperative lightweight threads over virtual time — the reproduction of
    the Lwt layer Mirage uses (paper §3.3).

    Threads are heap-allocated promise values; the VM is either executing
    OCaml code or blocked on the simulator's event queue, exactly mirroring
    the paper's "executing or blocked with no internal preemption" model.
    Timers go through {!sleep}, which schedules on the discrete-event
    simulator rather than an OS timer. *)

type 'a t
type 'a u  (** wakener for a {!wait} promise *)

exception Canceled
exception Timeout

(** {1 Core monad} *)

val return : 'a -> 'a t
val fail : exn -> 'a t

(** [bind t f] runs [f] on [t]'s value once [t] resolves; a failure of [t]
    skips [f]. If [f] returns a promise that is still pending, that promise
    becomes a {e proxy} of [bind]'s result rather than forwarding its outcome
    to it: the two are merged into one promise, the proxy's waiters and cancel
    hooks joining the result's. So [let rec loop () = read c >>= fun x -> ...;
    loop ()] runs in constant space: each round's promise merges into the
    first round's result, and nothing is kept per round, whether or not the
    caller holds that result. *)
val bind : 'a t -> ('a -> 'b t) -> 'b t

val map : ('a -> 'b) -> 'a t -> 'b t

module Infix : sig
  val ( >>= ) : 'a t -> ('a -> 'b t) -> 'b t
  val ( >|= ) : 'a t -> ('a -> 'b) -> 'b t
end

(** {1 Resolution} *)

(** A fresh pending promise and its wakener. *)
val wait : unit -> 'a t * 'a u

(** [wakeup u v] resolves the promise; no-op if already resolved by a
    cancellation race, error to double-wakeup otherwise. *)
val wakeup : 'a u -> 'a -> unit

val wakeup_exn : 'a u -> exn -> unit

val state : 'a t -> [ `Pending | `Resolved of 'a | `Failed of exn ]

(** Whether a wakener's promise is still pending (its wakeup would land). *)
val wakener_pending : 'a u -> bool

(** [on_resolve t f] calls [f] when [t] settles (immediately if already
    settled). *)
val on_resolve : 'a t -> (('a, exn) result -> unit) -> unit

(** {1 Exception handling} *)

(** [catch f handler] is [f ()], or [handler e] if it fails with [e]. A
    pending promise returned by [handler] becomes a proxy of the result, as
    in {!bind}, so a loop recursing through [catch] runs in constant space
    too. *)
val catch : (unit -> 'a t) -> (exn -> 'a t) -> 'a t

(** [try_bind f on_ok on_err] is [on_ok v] if [f ()] resolves to [v], or
    [on_err e] if it fails with [e]. {!finalize} is built on it. *)
val try_bind : (unit -> 'a t) -> ('a -> 'b t) -> (exn -> 'b t) -> 'b t

(** [finalize f g] runs [g] whichever way [f]'s promise settles. *)
val finalize : (unit -> 'a t) -> (unit -> unit t) -> 'a t

(** Detach a thread; failures go to {!set_async_exception_hook}. *)
val async : (unit -> unit t) -> unit

val set_async_exception_hook : (exn -> unit) -> unit

(** {1 Combinators} *)

(** First promise to settle wins; the losers are cancelled. *)
val pick : 'a t list -> 'a t

(** First promise to settle wins; the losers keep running. *)
val choose : 'a t list -> 'a t

(** Resolves when every promise has resolved. *)
val join : unit t list -> unit t

(** Like {!join} but collects results in order. *)
val all : 'a t list -> 'a list t

(** Resolve both, returning the pair. *)
val both : 'a t -> 'b t -> ('a * 'b) t

(** {1 Cancellation} *)

(** [cancel t] fails a pending [t] with {!Canceled}, running its registered
    cancel hooks (e.g. descheduling its timer) and propagating upstream
    through [bind]. The paper relies on this to free wrapped resources such
    as grant references (§3.4.1). A proxy and the promise it was merged into
    (see {!bind}) are one promise: cancelling either runs both sides' hooks. *)
val cancel : 'a t -> unit

(** [on_cancel t f] registers a hook run if [t] is cancelled. *)
val on_cancel : 'a t -> (unit -> unit) -> unit

(** {1 Time} *)

(** [sleep sim ns] resolves after [ns] nanoseconds of virtual time. *)
val sleep : Engine.Sim.t -> int -> unit t

(** Reschedule at the current instant, letting other ready work run. *)
val yield : Engine.Sim.t -> unit t

(** [with_timeout sim ns f] fails with {!Timeout} (cancelling [f]'s thread)
    if it does not settle within [ns]. *)
val with_timeout : Engine.Sim.t -> int -> (unit -> 'a t) -> 'a t

(** {1 Driving the simulation} *)

(** [run sim t] steps the simulator until [t] settles, then returns its
    value or raises its failure.
    @raise Failure if the event queue drains while [t] is still pending
    (deadlock). *)
val run : Engine.Sim.t -> 'a t -> 'a

(** {1 Introspection} — thread counters for tests and the Figure 7 bench. *)

(** Promises created, proxies included, since the last {!reset_counters}. *)
val created_count : unit -> int

(** Promises settled since the last {!reset_counters}. A promise that
    became a proxy (see {!bind}) settles with the promise it was merged
    into and is not counted again. *)
val resolved_count : unit -> int

val reset_counters : unit -> unit
