(** The simulated hypervisor: domain table plus the shared facilities
    (event channels and grant tables).

    [seal_patch] models the paper's optional <50-line Xen extension
    (§2.3.3): when absent, unikernels still run but the seal hypercall is
    refused and the defence-in-depth layer is lost, exactly as the paper
    describes for unmodified Xen. *)

type t = {
  sim : Engine.Sim.t;
  stats : Xstats.t;
  evtchn : Evtchn.t;
  gnttab : Gnttab.t;
  seal_patch : bool;
  domain_table : (int, Domain.t) Hashtbl.t;
  mutable next_domid : int;
}

exception Seal_unsupported

val create : ?seal_patch:bool -> Engine.Sim.t -> t

(** Allocate a domain record (state [Building]); the toolstack runs the
    boot sequence. *)
val create_domain :
  t -> name:string -> mem_mib:int -> platform:Platform.t -> ?vcpus:int -> unit -> Domain.t

(** O(1) lookup by domain id. *)
val domain : t -> int -> Domain.t option

(** All live domains, sorted by id (= creation order, ids being
    monotonic) so reports iterate deterministically. *)
val domains : t -> Domain.t list

(** The seal hypercall (§2.3.3).
    @raise Seal_unsupported on an unpatched hypervisor
    @raise Pagetable.Sealed_violation on a double seal. *)
val seal : t -> Domain.t -> unit

(** Remove the domain from the domain table and mark it shut down.
    [exit_code] defaults to [-1] (killed); an orderly teardown
    ([Appliance.Handle.shutdown]) passes [0]. *)
val destroy : ?exit_code:int -> t -> Domain.t -> unit

val domain_count : t -> int
