(** Guest page-table model with the paper's [seal] hypervisor extension
    (§2.3.3).

    A unikernel lays out regions so that no page is both writable and
    executable, then issues the seal hypercall; from then on the hypervisor
    refuses page-table modifications, so code not present at compile time
    can never become executable. I/O mappings remain possible post-seal
    provided they are non-executable and do not shadow existing regions. *)

type perm =
  | Read_only
  | Read_write  (** data, heaps, I/O pages — never executable *)
  | Read_exec  (** text — never writable *)

type t

exception Sealed_violation of string
exception Wxorx_violation of string
exception Overlap of string

val create : unit -> t

(** [add_region t ~va ~len ~perm ~label] installs a mapping.
    @raise Overlap on intersection with an existing region
    @raise Sealed_violation once the table is sealed. *)
val add_region : t -> va:int -> len:int -> perm:perm -> label:string -> unit

(** [set_perm t ~va ~perm] changes an existing region's protection.
    @raise Sealed_violation once sealed
    @raise Not_found for an unknown base address. *)
val set_perm : t -> va:int -> perm:perm -> unit

(** The seal hypercall. Verifies the write-xor-execute invariant
    ({!Wxorx_violation} otherwise) and freezes the table. *)
val seal : t -> unit

val is_sealed : t -> bool

(** Post-seal I/O mapping: allowed only when non-executable and
    non-overlapping (paper: "does not replace any existing data, code, or
    guard pages").
    @raise Sealed_violation when executable
    @raise Overlap when it would shadow an existing region. *)
val map_io : t -> va:int -> len:int -> label:string -> unit

(** Would an instruction fetch at [va] be permitted? The code-injection
    test: fresh data pages are never executable. *)
val can_exec : t -> va:int -> bool

(** Would a data write at [va] be permitted? *)
val can_write : t -> va:int -> bool
