(** Domain names as label lists, normalised to lowercase. *)

type t = string list

(** ["www.example.com"] -> [["www"; "example"; "com"]]; trailing dot ok. *)
val of_string : string -> t

val to_string : t -> string
val equal : t -> t -> bool
val compare : t -> t -> int

(** Non-empty suffixes of a name, longest first: used by compression.
    [suffixes ["a";"b";"c"]] = [[a;b;c]; [b;c]; [c]]. *)
val suffixes : t -> t list

(** [is_suffix ~suffix name]. *)
val is_suffix : suffix:t -> t -> bool

(** Total encoded length (labels + length bytes + root). *)
val encoded_length : t -> int

