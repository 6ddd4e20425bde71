type t = {
  domain : Xensim.Domain.t;
  image : Linker.image;
  plan : Specialize.plan;
  config : Config.t;
  sealed : bool;
  ready_at_ns : int;
  target : Target.t;
  console : Devices.Console.t;
}

exception Build_error of string

(* Mirage guest initialisation: runtime + PVBoot start-of-day. The memory
   term is the extent allocator reserving the major heap, far cheaper than
   Linux's struct-page initialisation. Calibrated to Figure 6: < 50 ms
   even at 2 GiB. *)
let mirage_profile ~image_bytes =
  {
    Xensim.Toolstack.kind = "mirage";
    image_bytes;
    kernel_init_ns = (fun ~mem_mib -> 12_000_000 + (9_000 * mem_mib));
  }

(* The POSIX targets run as host processes: link against the host libc,
   no domain build, no sealing. *)
let posix_libc_bytes = 180 * 1024
let process_spawn_ns = 1_200_000 (* fork+exec+dynamic linking *)

type recipe = { dce : Specialize.dce; libc_bytes : int }

(* The developer targets always build with the stock compiler, so
   ocamlclean only ever applies to the Xen image. *)
let recipe ?(xen_dce = Specialize.Ocamlclean) = function
  | Target.Xen_direct -> { dce = xen_dce; libc_bytes = 0 }
  | Target.Posix_sockets | Target.Posix_direct ->
    { dce = Specialize.Standard; libc_bytes = posix_libc_bytes }

let configure ?(target = Target.Xen_direct) config =
  let plan = Specialize.plan ~target config (recipe target).dce in
  match Specialize.verify plan with Ok () -> plan | Error msg -> raise (Build_error msg)

(* A configured plan serves every configuration with the same libraries
   and application size: a clone differs from its template only in name
   and ASR seed, so it takes the template's plan with its own config. *)
let plan_for ~target config = function
  | None -> configure ~target config
  | Some (p : Specialize.plan) ->
    let c = p.Specialize.config in
    if
      p.Specialize.target <> target
      || c.Config.roots <> config.Config.roots
      || c.Config.app_text_bytes <> config.Config.app_text_bytes
      || c.Config.app_loc <> config.Config.app_loc
    then invalid_arg "Unikernel.boot: plan configured for other libraries or target";
    { p with Specialize.config }

let boot hv ts ?(mode = `Async) ?(seal = true) ?(platform = Platform.xen_extent)
    ?(target = Target.Xen_direct) ?plan ~config ~mem_mib ~main () =
  let open Mthread.Promise in
  let r = recipe target in
  let plan = plan_for ~target config plan in
  let image = Linker.link plan ~seed:config.Config.aslr_seed in
  let image = { image with Linker.total_bytes = image.Linker.total_bytes + r.libc_bytes } in
  let platform = if target = Target.Xen_direct then platform else Platform.linux_native in
  let seal = seal && target = Target.Xen_direct in
  let profile = mirage_profile ~image_bytes:image.Linker.total_bytes in
  let built =
    match target with
    | Target.Xen_direct ->
      Xensim.Toolstack.boot ts ~mode ~profile ~name:config.Config.app_name ~mem_mib ~platform
    | Target.Posix_sockets | Target.Posix_direct ->
      (* a process on the developer's host, not a domain build *)
      let d = Xensim.Hypervisor.create_domain hv ~name:config.Config.app_name ~mem_mib ~platform () in
      d.Xensim.Domain.state <- Xensim.Domain.Running;
      bind (sleep hv.Xensim.Hypervisor.sim process_spawn_ns) (fun () ->
          return (d, Engine.Sim.now hv.Xensim.Hypervisor.sim))
  in
  bind built
    (fun (domain, ready_at_ns) ->
      (* Start-of-day: install the randomised image and the runtime memory
         regions, then seal (Xen target only — POSIX targets live in an
         ordinary mutable process address space). *)
      if target = Target.Xen_direct then begin
        let layout = Pvboot.Layout.standard ~mem_mib ~text_bytes:4096 ~data_bytes:4096 in
        Linker.install image domain.Xensim.Domain.pagetable;
        Pvboot.Layout.install_only layout domain.Xensim.Domain.pagetable
          [ Pvboot.Layout.Io_pages; Pvboot.Layout.Minor_heap; Pvboot.Layout.Major_heap;
            Pvboot.Layout.Xen_reserved ]
      end;
      let sealed =
        if seal && hv.Xensim.Hypervisor.seal_patch then begin
          Xensim.Hypervisor.seal hv domain;
          true
        end
        else false
      in
      let console = Devices.Console.create () in
      Devices.Console.write console
        (Printf.sprintf "Mirage unikernel %s: %d libraries, %d bytes, sealed=%b\n"
           config.Config.app_name
           (List.length plan.Specialize.libs)
           image.Linker.total_bytes sealed);
      let u = { domain; image; plan; config; sealed; ready_at_ns; target; console } in
      (* The application main thread: the VM shuts down with its return
         value as exit code. *)
      async (fun () ->
          catch
            (fun () ->
              bind (main u) (fun code ->
                  Xensim.Domain.shutdown domain ~exit_code:code;
                  return ()))
            (fun _exn ->
              Xensim.Domain.shutdown domain ~exit_code:255;
              return ()));
      return u)

(* What `mirage build` would print next to each target's image size: the
   domain-build + guest-init path for Xen, a process spawn for POSIX. *)
let boot_estimate_ns ~target ~mem_mib ~image_bytes =
  match target with
  | Target.Xen_direct ->
    Xensim.Toolstack.build_time_ns ~mem_mib ~image_bytes
    + (mirage_profile ~image_bytes).Xensim.Toolstack.kernel_init_ns ~mem_mib
  | Target.Posix_sockets | Target.Posix_direct -> process_spawn_ns

let exit_code t =
  match t.domain.Xensim.Domain.state with
  | Xensim.Domain.Shutdown code -> Some code
  | Xensim.Domain.Building | Xensim.Domain.Running | Xensim.Domain.Blocked -> None
