(** Typed views over byte buffers — the reproduction of Mirage's [cstruct].

    A [t] is a window (offset + length) onto a shared underlying buffer.
    Sub-views alias the parent's storage, which is what gives the network
    stack its zero-copy behaviour: slicing a received frame into
    header/payload views allocates only the small view records, never copies
    packet data (paper §3.4.1).

    All accessors bounds-check against the view and raise
    [Invalid_argument] on violation; this is the type-safety the paper
    leans on to eliminate memory-overflow bugs in packet parsing. *)

type t

(** {1 Construction} *)

(** [create n] allocates a zero-filled buffer of [n] bytes. *)
val create : int -> t

val of_string : string -> t
val of_bytes : bytes -> t

(** [view ?off ?len t] returns a sub-view sharing storage with [t]. *)
val view : ?off:int -> ?len:int -> t -> t

(** {1 Observation} *)

val length : t -> int

(** Copy out as a fresh string. *)
val to_string : t -> string

(** [equal a b] compares contents (not identity), in place —
    allocation-free, safe on the datapath. *)
val equal : t -> t -> bool

(** Lexicographic content comparison, in place and allocation-free. *)
val compare : t -> t -> int

(** {1 Slicing} *)

(** [sub t off len]: view of [len] bytes starting at [off]. *)
val sub : t -> int -> int -> t

(** [shift t n] drops the first [n] bytes of the view. *)
val shift : t -> int -> t

(** [split t n] = [(sub t 0 n, shift t n)]. *)
val split : t -> int -> t * t

(** {1 Copying} *)

val blit : t -> int -> t -> int -> int -> unit
val fill : t -> char -> unit

(** Fresh buffer holding a copy of the view's contents. *)
val copy : t -> t

(** Total length of a list of views. *)
val lenv : t list -> int

(** {1 Scalar accessors} *)

val get_uint8 : t -> int -> int
val set_uint8 : t -> int -> int -> unit

(** Big-endian (network order) accessors. *)
module BE : sig
  val get_uint16 : t -> int -> int
  val set_uint16 : t -> int -> int -> unit
  val get_uint32 : t -> int -> int32
  val set_uint32 : t -> int -> int32 -> unit

  (** The unsigned 32-bit field as an [int] in [\[0, 2^32)], unboxed. *)
  val get_uint32_int : t -> int -> int

  (** Stores the low 32 bits of the [int]. *)
  val set_uint32_int : t -> int -> int -> unit
end

(** Little-endian accessors (Xen shared rings are little-endian). *)
module LE : sig
  val get_uint16 : t -> int -> int
  val set_uint16 : t -> int -> int -> unit
  val set_uint32 : t -> int -> int32 -> unit

  (** The unsigned 32-bit field as an [int] in [\[0, 2^32)], unboxed. *)
  val get_uint32_int : t -> int -> int

  (** Stores the low 32 bits of the [int]. *)
  val set_uint32_int : t -> int -> int -> unit

  val get_uint64 : t -> int -> int64
  val set_uint64 : t -> int -> int64 -> unit
end

(** {1 Checksumming} *)

(** [sum16_ne t off len] is the one's-complement sum of the [len] bytes at
    [off], read as native-endian 16-bit words (an odd last byte is padded
    with a zero byte) and folded to 16 bits. It is allocation-free and reads
    nothing outside [\[off, off+len)]; {!Netstack.Checksum} turns it into
    the network-order Internet checksum. *)
val sum16_ne : t -> int -> int -> int

(** {1 Strings within buffers} *)

(** [get_string t off len] copies out a substring. *)
val get_string : t -> int -> int -> string

(** [set_string t off s] writes [s] at [off]. *)
val set_string : t -> int -> string -> unit

