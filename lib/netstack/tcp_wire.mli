(** TCP segment wire format and 32-bit sequence arithmetic. *)

(** Sequence numbers, modulo 2^32 with signed-distance comparisons. *)
module Seq : sig
  type t

  val zero : t
  val of_int : int -> t
  val to_int : t -> int
  val add : t -> int -> t

  (** Signed distance [a - b]; correct across wraparound for spans under
      2^31. *)
  val diff : t -> t -> int

  val lt : t -> t -> bool
  val leq : t -> t -> bool
  val gt : t -> t -> bool
  val geq : t -> t -> bool
  val equal : t -> t -> bool
  val max : t -> t -> t
end

type flags = { syn : bool; ack : bool; fin : bool; rst : bool; psh : bool }

val flags_none : flags

type option_ = Mss of int | Window_scale of int

type segment = {
  src_port : int;
  dst_port : int;
  seq : Seq.t;
  ack : Seq.t;
  flags : flags;
  window : int;  (** raw (unscaled) window field *)
  options : option_ list;
  payload : Bytestruct.t;
}

(** [encode ~src ~dst seg] returns [header :: payload] fragments with the
    checksum computed over the pseudo-header (software checksum — offload
    is off throughout the evaluation). *)
val encode : src:Ipaddr.t -> dst:Ipaddr.t -> segment -> Bytestruct.t list

(** [decode ~src ~dst buf] validates the checksum and parses.
    Errors: [`Too_short], [`Bad_checksum]. *)
val decode :
  src:Ipaddr.t -> dst:Ipaddr.t -> Bytestruct.t -> (segment, [ `Too_short | `Bad_checksum ]) result

