(** Condition variable: broadcastable wait queue carrying a value. *)

type 'a t

val create : unit -> 'a t

(** Block until the next {!signal} or {!broadcast}. *)
val wait : 'a t -> 'a Promise.t

(** Wake exactly one waiter (no-op when none). *)
val signal : 'a t -> 'a -> unit

(** Wake every current waiter. *)
val broadcast : 'a t -> 'a -> unit
