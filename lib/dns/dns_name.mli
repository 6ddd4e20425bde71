(** Domain names in wire form: one string of lowercase, length-prefixed
    labels, without the root's zero byte. ["www.Example.com"] is
    ["\003www\007example\003com"] and the root is [""].

    Every layer keeps a name as this one string: the decoder builds it
    with one exact-size allocation, the zone database and the response
    memo key on it (one string hash, one memcmp), and the compression
    table keys on its label-boundary suffixes. The encoder writes a name
    by copying its bytes. The representation is exposed read-only
    ([private string]) so the invariants below hold for every [t]:

    - each label is 1–63 octets (RFC 1035 §2.3.4), lowercased
      (ASCII);
    - the name's encoded length, root byte included, is at most 255
      octets. *)

type t = private string

(** ["www.example.com"] -> ["\003www\007example\003com"]; lowercased; one
    trailing dot is allowed, and [""] and ["."] are the root.
    @raise Invalid_argument on an empty label (["a..b"]), a label over
    63 octets, or a name over 255 octets. *)
val of_string : string -> t

(** Dotted form without the trailing dot; the root prints as ["."]. A
    label holding a dot prints ambiguously. *)
val to_string : t -> string

(** The labels, leftmost first: [labels (of_string "a.b")] = [["a"; "b"]]. *)
val labels : t -> string list

(** [cons label name] prepends one label, lowercased; it may hold any
    octet, dots included. @raise Invalid_argument as {!of_string}. *)
val cons : string -> t -> t

(** [append a b] is [a]'s labels followed by [b]'s: a plain string
    append. @raise Invalid_argument past 255 octets. *)
val append : t -> t -> t

val equal : t -> t -> bool
val compare : t -> t -> int

(** [is_suffix ~suffix name]: [suffix] is [name]'s tail {e at a label
    boundary}, so ["example"] is not a suffix of the one-label name
    ["a\007example"]. *)
val is_suffix : suffix:t -> t -> bool

(** Encoded length on the wire: labels, length bytes and the root byte.
    O(1). *)
val encoded_length : t -> int

(** Wrap a string the caller has already built in this form (labels of
    1–63 octets, lowercased, at most 254 octets). Unchecked: for the
    wire decoder, which validates as it copies. *)
val unsafe_of_string : string -> t
