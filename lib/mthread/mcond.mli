(** Condition variable: broadcastable wait queue carrying a value. *)

type 'a t

val create : unit -> 'a t

(** Block until the next {!broadcast}. *)
val wait : 'a t -> 'a Promise.t

(** Wake every current waiter. *)
val broadcast : 'a t -> 'a -> unit
