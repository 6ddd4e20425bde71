(** IPv4 addresses. *)

type t

val any : t
val broadcast : t

(** [v4 a b c d] builds [a.b.c.d]. *)
val v4 : int -> int -> int -> int -> t

(** Parse dotted-quad. @raise Invalid_argument on malformed input. *)
val of_string : string -> t

val to_string : t -> string

(** [of_int32] reads the 32 bits as unsigned: [of_int32 (-1l)] is
    {!broadcast}. [to_int32] is its inverse. *)
val of_int32 : int32 -> t

val to_int32 : t -> int32

(** The address as its unsigned 32-bit value, in [\[0, 2{^32})]. *)
val to_int : t -> int

val equal : t -> t -> bool

(** Orders addresses by their unsigned value: [10.0.0.1] before
    [192.168.0.1]. *)
val compare : t -> t -> int

(** [same_subnet ~netmask a b]. *)
val same_subnet : netmask:t -> t -> t -> bool

(** Read/write at an offset inside a packet. *)
val get : Bytestruct.t -> int -> t

val set : Bytestruct.t -> int -> t -> unit
