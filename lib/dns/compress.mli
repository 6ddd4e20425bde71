(** DNS label compression tables — "notoriously tricky to get right as
    previously seen label fragments must be carefully tracked" (paper
    §4.2).

    Two interchangeable implementations reproduce the paper's comparison:

    - {!Hashtable}: the initial naive mutable hashtable. Vulnerable to the
      collision denial-of-service the paper mentions (its hash is fixed
      and unkeyed, so an adversary can pick suffixes that share a
      bucket).
    - {!Fmap}: the replacement functional map whose customised ordering
      compares suffix {e sizes} before contents, and as a balanced tree
      is immune to hash collisions.

    A table maps name suffixes to the offset at which they were first
    written in the message; the encoder emits a pointer to the longest
    known suffix. A suffix is a {!Dns_name.t} read from a label boundary
    onward, so neither probing nor recording one copies the name. *)

type impl = Hashtable | Fmap

module type S = sig
  type t

  val create : unit -> t

  (** Longest suffix of [name] already present: [Some (split, offset)]
      when the suffix starting at byte [split] of [name] (a label
      boundary) was written at message [offset]. [name]'s bytes before
      [split] are its labels not covered by the match. *)
  val find_longest : t -> Dns_name.t -> (int * int) option

  (** [add t name ~start offset] records that the suffix of [name] from
      byte [start] (a label boundary) was written at [offset]. The first
      offset recorded for a suffix stays; offsets ≥ 0x4000 cannot be
      pointed at and are ignored, per RFC 1035. *)
  val add : t -> Dns_name.t -> start:int -> int -> unit

  val entries : t -> int
end

module Hashtable : S
module Fmap : S

(** Existential wrapper selected by {!impl}. *)
type table

val create : impl -> table
val find_longest : table -> Dns_name.t -> (int * int) option
val add : table -> Dns_name.t -> start:int -> int -> unit
val entries : table -> int
