(** Garbage-collected heap cost model (paper §3.3, Figure 7a).

    The OCaml GC splits the heap into a fast minor heap and a large major
    heap. In a conventional userspace, Address Space Randomisation forces
    the collector to track scattered heap chunks through a page table; the
    Mirage runtime instead guarantees one contiguous virtual area grown in
    2 MB superpage extents, which reduces both the cost of growing the heap
    and the cost of scanning it. [alloc] returns the nanoseconds of virtual
    time the allocation costs, amortising collection work, so callers
    charge it to their domain's vCPU. *)

type t

val create : platform:Platform.t -> unit -> t

(** Allocate [bytes] that remain live (e.g. a sleeping thread record).
    Returns the virtual-time cost in ns. *)
val alloc : t -> bytes:int -> int

val live_bytes : t -> int
val major_capacity_bytes : t -> int
val minor_collections : t -> int
val major_collections : t -> int
