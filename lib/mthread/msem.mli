(** Counting semaphore for bounding concurrency (e.g. device request slots). *)

type t

(** @raise Invalid_argument if [n < 0]. *)
val create : int -> t

(** [acquire t] blocks until a permit is available. *)
val acquire : t -> unit Promise.t

(** [release t] returns a permit, waking one waiter if any. *)
val release : t -> unit

(** [with_permit t f] brackets [f] with acquire/release, releasing on
    failure too — the combinator-style resource safety of paper §3.4.1. *)
val with_permit : t -> (unit -> 'a Promise.t) -> 'a Promise.t
