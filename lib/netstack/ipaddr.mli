(** IPv4 addresses. *)

type t

val any : t
val broadcast : t

(** [v4 a b c d] builds [a.b.c.d]. *)
val v4 : int -> int -> int -> int -> t

(** Parse dotted-quad. @raise Invalid_argument on malformed input. *)
val of_string : string -> t

val to_string : t -> string
val of_int32 : int32 -> t
val to_int32 : t -> int32
val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

(** [same_subnet ~netmask a b]. *)
val same_subnet : netmask:t -> t -> t -> bool

(** Read/write at an offset inside a packet. *)
val get : Bytestruct.t -> int -> t

val set : Bytestruct.t -> int -> t -> unit
