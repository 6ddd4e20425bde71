(** Ethernet MAC addresses (six raw bytes). *)

type t

val broadcast : t

(** @raise Invalid_argument unless exactly six bytes. *)
val of_bytes : string -> t

(** Parse [aa:bb:cc:dd:ee:ff]. @raise Invalid_argument on malformed input. *)
val of_string : string -> t

val to_bytes : t -> string
val to_string : t -> string
val equal : t -> t -> bool
val compare : t -> t -> int
val is_broadcast : t -> bool

(** Read/write at an offset inside a frame. *)
val get : Bytestruct.t -> int -> t

val set : Bytestruct.t -> int -> t -> unit
