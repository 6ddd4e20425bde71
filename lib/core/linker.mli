(** The unikernel linker with compile-time address-space randomisation
    (paper §2.3.4).

    Reconfiguring means recompiling, so layout randomisation happens here
    — a freshly generated layout per build seed — instead of at runtime:
    no runtime linker, no impeded compiler optimisation. Sections are
    placed at randomised, guard-page-separated addresses; text is RX, data
    RW, so the image is sealable W-xor-X. *)

type section = {
  sec_name : string;  (** e.g. "text:tcp" *)
  guard_name : string;  (** the guard page after it, e.g. "guard:text:tcp" *)
  va : int;
  bytes : int;
  perm : Xensim.Pagetable.perm;
}

type image = {
  sections : section list;  (** ascending va *)
  entry_va : int;  (** start symbol, inside the first text section *)
  total_bytes : int;
  seed : int;
}

(** [link plan ~seed] lays out one text and one data section per linked
    library plus the application. Deterministic for a given (plan, seed). *)
val link : Specialize.plan -> seed:int -> image

(** Install every section (plus inter-section guards) into a page table. *)
val install : image -> Xensim.Pagetable.t -> unit

(** Layout distance metric used by tests: fraction of section base
    addresses that differ between two images. *)
val layout_distance : image -> image -> float
