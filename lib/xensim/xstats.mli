(** Hypervisor operation counters, shared across the xensim subsystems.

    Tests and benchmarks read these to verify structural claims — e.g. that
    the zero-copy path performs grant maps but no grant copies, or that
    vchan data exchange needs no hypercalls beyond interrupt notifications
    (paper §3.5.1). *)

type t = {
  mutable hypercalls : int;
  mutable evtchn_notifies : int;
  mutable grant_maps : int;
  mutable grant_copies : int;
  mutable domain_builds : int;
  mutable seals : int;
  mutable page_table_writes : int;
}

val create : unit -> t
val reset : t -> unit
