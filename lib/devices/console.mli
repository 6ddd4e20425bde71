(** The paravirtual console: a byte ring to dom0, surfaced as log lines
    (what `xl console` would show). The unikernel runtime writes its boot
    banner here; the console belongs to the unikernel that owns it
    ([Core.Unikernel.t]'s [console]). *)

type t

val create : unit -> t

(** [write t s] appends to the console; complete lines (ending ['\n'])
    become log entries. *)
val write : t -> string -> unit

(** [log t] returns the complete lines so far, oldest first. *)
val log : t -> string list

(** Any unterminated partial line. *)
val partial : t -> string
