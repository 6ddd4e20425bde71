(** The unikernel build-and-boot pipeline — the paper's Figure 1 right-hand
    column: configuration + application source + libraries, whole-system
    specialised into a sealed single-address-space VM.

    Pipeline: {!Specialize.plan} (dependency resolution + DCE) →
    {!Specialize.verify} (static check that only requested services link) →
    {!Linker.link} (compile-time ASR) → toolstack domain build → memory
    layout install → seal hypercall → application main thread. The VM
    shuts down when main returns, its exit code the thread's return
    (paper §3.3). *)

type t = {
  domain : Xensim.Domain.t;
  image : Linker.image;
  plan : Specialize.plan;
  config : Config.t;
  sealed : bool;  (** false on an unpatched hypervisor (§2.3.3) *)
  ready_at_ns : int;  (** boot-complete instant *)
  target : Target.t;  (** which step of the developer workflow (§5.4) *)
  console : Devices.Console.t;  (** the boot banner and anything main writes *)
}

exception Build_error of string

(** Boot-time profile of a Mirage image (Figures 5/6: tens of ms,
    near-flat in memory size). *)
val mirage_profile : image_bytes:int -> Xensim.Toolstack.profile

(** How an image is built for a target: the DCE mode its plan uses and
    the host libc bytes a POSIX image drags in (the unikernel links
    none). *)
type recipe = { dce : Specialize.dce; libc_bytes : int }

(** [recipe target]: [xen_dce] (default [Ocamlclean]) and no libc for
    [Xen_direct]; [Standard] DCE and the host libc for the POSIX
    targets, which build with the stock compiler. {!boot} and
    [mirage_sim build] both build this way. *)
val recipe : ?xen_dce:Specialize.dce -> Target.t -> recipe

(** [boot hv ts ~config ~mem_mib ~main ()] runs the full pipeline, with
    the target's default {!recipe}. [main] returns the VM exit code.
    Defaults: [`Async] toolstack, sealing requested. *)
val boot :
  Xensim.Hypervisor.t ->
  Xensim.Toolstack.t ->
  ?mode:[ `Sync | `Async ] ->
  ?seal:bool ->
  ?platform:Platform.t ->
  ?target:Target.t ->
  config:Config.t ->
  mem_mib:int ->
  main:(t -> int Mthread.Promise.t) ->
  unit ->
  t Mthread.Promise.t

(** Exit code once the domain has shut down: main's return value (255 if
    it raised), or the code a later teardown recorded. [None] while the
    domain runs. *)
val exit_code : t -> int option

(** Estimated time from "run it" to ready, per target: toolstack domain
    build + guest init for [Xen_direct], a process spawn for the POSIX
    targets. Used by the build report's per-target delta table. *)
val boot_estimate_ns : target:Target.t -> mem_mib:int -> image_bytes:int -> int
