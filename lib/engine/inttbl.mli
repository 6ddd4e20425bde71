(** Hash tables keyed by [int]: open addressing with linear probing over
    an [int] array of keys beside an array of values, at most half full.
    A probe is an integer multiply, a shift and array reads, with no
    call to a hash or equality function; inserting allocates nothing
    but the occasional doubling. A key has at most one binding. *)

type 'a t

(** [create n] is an empty table with room for [n] bindings before its
    first growth. *)
val create : int -> 'a t

(** Number of bindings. *)
val length : 'a t -> int

(** Remove every binding and shrink back to the size [create] chose. *)
val reset : 'a t -> unit

(** @raise Not_found if the key is unbound. *)
val find : 'a t -> int -> 'a

val find_opt : 'a t -> int -> 'a option

(** Bind the key, replacing its binding if it has one. *)
val replace : 'a t -> int -> 'a -> unit

(** Unbind the key; a no-op if it is unbound. *)
val remove : 'a t -> int -> unit

(** [fold f t acc] folds over every binding once, in an unspecified
    order; [f] must not modify [t]. *)
val fold : (int -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b
