(** Hash tables keyed by [int], with integer hashing and equality: a
    probe makes no call to the polymorphic hash or compare. The table
    and iteration semantics are [Hashtbl.S]'s. *)

include Hashtbl.S with type key = int
