(** Compile-time specialisation (paper §2.2, §2.3.1, §4.5, Table 2).

    [Standard] linking already performs module-level dead-code elimination:
    only the dependency closure of the configuration's roots is linked, so
    an appliance that uses no filesystem carries no block drivers.
    [Ocamlclean] additionally performs function-level dataflow elimination
    within each linked library — safe because unikernels never dynamically
    link.

    The closure is computed per {!Target}: the deploy target ([Xen_direct],
    the default — Table 2's numbers) links the unikernel facilities, while
    the POSIX developer targets rewrite protocol and device libraries to
    host shims or drop them (the kernel provides the service), so image
    sizes are target-dependent exactly as §5.4 describes. *)

type dce = Standard | Ocamlclean

type plan = {
  config : Config.t;
  target : Target.t;
  dce : dce;
  libs : Library_registry.lib list;  (** dependency order *)
  text_bytes : int;
  data_bytes : int;
  total_bytes : int;
  total_loc : int;
}

val plan : ?target:Target.t -> Config.t -> dce -> plan

(** The static verification of §2.3.1, now target-aware: the plan links
    nothing its target forbids (a [Posix_sockets] plan must not contain
    the netstack; a sealed [Xen_direct] image no host shims), is
    dependency-closed under the target's rewrite, and contains nothing
    outside the closure of the requested roots. *)
val verify : plan -> (unit, string) result


(** Libraries in the registry that specialisation dropped. *)
val elided : plan -> string list
