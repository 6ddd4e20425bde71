(** Minimal XenStore: the hierarchical configuration store the toolstack and
    split drivers use to rendezvous (frontend/backend handshake). Paths are
    '/'-separated; watches fire on writes at or below the watched prefix. *)

type t
type watch_id

val create : unit -> t

val write : t -> path:string -> string -> unit

val read : t -> path:string -> string option

(** Remove a node and its subtree. *)
val rm : t -> path:string -> unit

(** Immediate children names of [path]. *)
val directory : t -> path:string -> string list

(** [watch t ~path f] calls [f ~path ~value] for each write at or below
    [path] (and immediately for existing entries, per XenStore semantics). *)
val watch : t -> path:string -> (path:string -> value:string -> unit) -> watch_id

val unwatch : t -> watch_id -> unit
