(** The Mirage library universe (paper Table 1): every system facility is
    a library with explicit dependencies, code size and binary footprint.
    Specialisation (dead-code elimination, Table 2) is computed over this
    registry: only the dependency closure of a configuration's roots is
    linked, and function-level cleaning shrinks each library by its
    measured unused fraction. *)

type lib = {
  lib_name : string;
  subsystem : string;  (** Table 1 row: Core / Network / Storage / Application / Formats *)
  loc : int;  (** source lines *)
  text_bytes : int;  (** code contribution to a standard build *)
  data_bytes : int;
  unused_fraction : float;
      (** share of [text_bytes] removable by ocamlclean-style dataflow
          analysis when the library is linked but only partly used *)
  deps : string list;
}

exception Unknown_library of string

(** Every registered Mirage library (Table 1). Host shims — the
    [hostsock]/[tuntap]/[hostfile] bindings the POSIX developer targets
    link instead of unikernel facilities — are resolvable via {!find} but
    excluded here and from {!by_subsystem}, so the paper's table is
    unchanged by their existence. *)
val all : unit -> lib list

(** @raise Unknown_library *)
val find : string -> lib

val mem : string -> bool

(** Transitive dependency closure of the roots, dependencies first,
    duplicates removed. [rewrite] maps each library name before it is
    visited — to a substitute ([Some] a host shim), or [None] to drop the
    subtree (a facility the host kernel provides); the identity when
    omitted. This is how [Specialize] computes per-target closures.
    @raise Unknown_library *)
val dependency_closure : ?rewrite:(string -> string option) -> string list -> lib list

(** Table 1 layout: [(subsystem, library names)] in presentation order. *)
val by_subsystem : unit -> (string * string list) list
