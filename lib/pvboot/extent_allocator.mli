(** The PVBoot extent allocator (paper §3.2): reserves a contiguous area of
    virtual memory and hands it out in 2 MB chunks, permitting x86_64
    superpage mappings and guaranteeing the contiguous heap that simplifies
    the Mirage garbage collector. *)

type t

type extent = { base : int; len : int }

exception Out_of_extents

(** [create ~base ~size] manages [size] bytes of virtual memory at [base].
    @raise Invalid_argument unless both are 2 MB-aligned. *)
val create : base:int -> size:int -> t

(** [alloc t ~bytes] returns a contiguous extent of [bytes] rounded up to
    whole 2 MB chunks (first-fit). @raise Out_of_extents when no hole fits. *)
val alloc : t -> bytes:int -> extent

(** Return an extent; adjacent free holes coalesce. *)
val free : t -> extent -> unit

val used_bytes : t -> int
val free_bytes : t -> int
