(** Tiny path router: fixed segments and [:param] captures. *)

type 'a t

type params = (string * string) list

val create : unit -> 'a t

(** [add t meth "/user/:id/tweets" handler]. Later routes do not shadow
    earlier ones; first match wins. *)
val add : 'a t -> Http_wire.meth -> string -> (params -> 'a) -> unit

(** [dispatch t meth path] returns the first matching handler applied to
    its captured params. *)
val dispatch : 'a t -> Http_wire.meth -> string -> 'a option
