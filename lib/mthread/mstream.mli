(** Unbounded stream of values with blocking reads — the channel-iteratee
    bridge the paper uses between packets and typed streams (§3.5). *)

type 'a t

val create : unit -> 'a t

(** [push t v] appends a value; never blocks. *)
val push : 'a t -> 'a -> unit

(** [close t] ends the stream; subsequent {!next} calls return [None] once
    buffered values drain. *)
val close : 'a t -> unit

(** [next t] blocks until a value or end-of-stream is available. *)
val next : 'a t -> 'a option Promise.t

(** [map_buffered f t] replaces every buffered (not yet consumed) value
    [v] by [f v] in place, keeping order; works on a closed stream. *)
val map_buffered : ('a -> 'a) -> 'a t -> unit
