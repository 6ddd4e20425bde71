(** JSON (RFC 8259) parser and printer — Table 1 "Formats". *)

type t =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | Array of t list
  | Object of (string * t) list

exception Parse_error of int * string  (** position, message *)

val parse : string -> t
val to_string : t -> string

(** [escape s] is the body of the JSON string literal for [s], without the
    surrounding quotes: ['"'], ['\\'], newline, tab and carriage return
    take their short escapes, every other control character [\u00XX]. *)
val escape : string -> string

(** Object member access. *)
val member : string -> t -> t option
