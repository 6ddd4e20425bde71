(** The specialised single-address-space memory layout of a 64-bit Mirage
    unikernel (paper Figure 2): text and data low, a reserved Xen area, I/O
    data pages, a small minor heap and a large contiguous major heap mapped
    with 2 MB superpages. Regions are statically assigned roles and installed
    into the domain's page table with W-xor-X permissions before sealing. *)

type region_kind = Text | Data | Guard | Io_pages | Minor_heap | Major_heap | Xen_reserved

type region = { kind : region_kind; va : int; len : int }

type t

(** [standard ~mem_mib ~text_bytes ~data_bytes] computes the canonical
    layout for a guest of [mem_mib] MiB running an image with the given
    section sizes. *)
val standard : mem_mib:int -> text_bytes:int -> data_bytes:int -> t

val regions : t -> region list

val find : t -> region_kind -> region

(** Install every region into a page table (text RX, guards RO, all else
    RW), ready for {!Xensim.Hypervisor.seal}. *)
val install : t -> Xensim.Pagetable.t -> unit

(** Install only the given kinds — the unikernel boot path installs the
    heap/I/O/Xen regions here and lets the linker place its own randomised
    text/data sections (paper §2.3.4). *)
val install_only : t -> Xensim.Pagetable.t -> region_kind list -> unit

(** Canonical virtual-address constants (exposed for tests). *)
val minor_heap_extent_bytes : int

(** 2 MB, the superpage granule used by the major heap. *)
val superpage_bytes : int
