(** Ethernet MAC addresses (six raw bytes). *)

type t

val broadcast : t

(** @raise Invalid_argument unless exactly six bytes. *)
val of_bytes : string -> t

val to_bytes : t -> string
val equal : t -> t -> bool
val compare : t -> t -> int

(** Read/write at an offset inside a frame. *)
val get : Bytestruct.t -> int -> t

val set : Bytestruct.t -> int -> t -> unit
