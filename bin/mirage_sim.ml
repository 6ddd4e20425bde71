(* mirage_sim: command-line front end to the unikernel construction
   pipeline — list the library registry, plan/link appliances, and boot
   them on the simulated hypervisor.

     dune exec bin/mirage_sim.exe -- list
     dune exec bin/mirage_sim.exe -- build dns --dce clean --seed 7
     dune exec bin/mirage_sim.exe -- boot web --mem 128 --sync *)

open Cmdliner
module P = Mthread.Promise

let appliances =
  [
    ("dns", fun ?aslr_seed () -> Core.Appliance.dns_appliance ?aslr_seed ());
    ("web", fun ?aslr_seed () -> Core.Appliance.web_server ?aslr_seed ());
    ("of-switch", fun ?aslr_seed () -> Core.Appliance.openflow_switch ?aslr_seed ());
    ("of-controller", fun ?aslr_seed () -> Core.Appliance.openflow_controller ?aslr_seed ());
  ]

let appliance_conv =
  let parse s =
    match List.assoc_opt s appliances with
    | Some f -> Ok (s, f)
    | None ->
      Error (`Msg (Printf.sprintf "unknown appliance %s (try: %s)" s
                     (String.concat ", " (List.map fst appliances))))
  in
  Arg.conv (parse, fun fmt (s, _) -> Format.pp_print_string fmt s)

(* ---- list ---- *)

let list_cmd =
  let doc = "List the Mirage library registry (Table 1) with sizes and dependencies" in
  let run () =
    Printf.printf "%-12s %-12s %8s %9s %7s  %s\n" "subsystem" "library" "loc" "text(kB)" "unused" "deps";
    List.iter
      (fun (subsystem, names) ->
        List.iter
          (fun name ->
            let l = Core.Library_registry.find name in
            Printf.printf "%-12s %-12s %8d %9d %6.0f%%  %s\n" subsystem name
              l.Core.Library_registry.loc
              (l.Core.Library_registry.text_bytes / 1024)
              (100.0 *. l.Core.Library_registry.unused_fraction)
              (String.concat ", " l.Core.Library_registry.deps))
          names)
      (Core.Library_registry.by_subsystem ())
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

(* ---- build ---- *)

let target_conv =
  Arg.conv
    ( (fun s ->
        match Core.Target.of_string s with
        | Some t -> Ok t
        | None ->
          Error (`Msg ("unknown target " ^ s ^ " (posix-sockets|posix-direct|xen-direct)"))),
      fun fmt t -> Format.pp_print_string fmt (Core.Target.to_string t) )

let target_arg =
  Arg.(
    value
    & opt target_conv Core.Target.Xen_direct
    & info [ "target" ] ~docv:"TARGET"
        ~doc:
          "Backend to configure against: $(b,xen-direct) (PV ring + unikernel stack), \
           $(b,posix-direct) (tuntap + unikernel stack) or $(b,posix-sockets) (host kernel \
           sockets).")

let dce_conv =
  Arg.conv
    ( (function
      | "standard" -> Ok Core.Specialize.Standard
      | "clean" -> Ok Core.Specialize.Ocamlclean
      | s -> Error (`Msg ("unknown dce mode " ^ s ^ " (standard|clean)"))),
      fun fmt d ->
        Format.pp_print_string fmt
          (match d with Core.Specialize.Standard -> "standard" | Core.Specialize.Ocamlclean -> "clean") )

let build_cmd =
  let doc = "Specialise and link an appliance: dependency closure, DCE, compile-time ASR" in
  let appliance = Arg.(required & pos 0 (some appliance_conv) None & info [] ~docv:"APPLIANCE") in
  let dce = Arg.(value & opt dce_conv Core.Specialize.Ocamlclean & info [ "dce" ] ~docv:"MODE") in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"ASR build seed") in
  let run (name, mk) dce seed target trace =
    Plane_cli.run ?trace @@ fun () ->
    let staged what f =
      if Trace.enabled () then begin
        let sp = Trace.span ~cat:Trace.Boot ("build." ^ what) in
        let r = f () in
        Trace.finish sp;
        r
      end
      else f ()
    in
    let config = mk ?aslr_seed:(Some seed) () in
    let recipe = Core.Unikernel.recipe ~xen_dce:dce in
    let dce = (recipe target).Core.Unikernel.dce in
    let plan = staged "plan" (fun () -> Core.Specialize.plan ~target config dce) in
    (match staged "verify" (fun () -> Core.Specialize.verify plan) with
    | Ok () -> ()
    | Error e ->
      Printf.eprintf "verification failed: %s\n" e;
      exit 1);
    let image = staged "link" (fun () -> Core.Linker.link plan ~seed:config.Core.Config.aslr_seed) in
    Printf.printf "appliance %s: %d libraries, %d bytes (%d kLoC active)\n" name
      (List.length plan.Core.Specialize.libs)
      plan.Core.Specialize.total_bytes (plan.Core.Specialize.total_loc / 1000);
    Printf.printf "elided: %s\n" (String.concat ", " (Core.Specialize.elided plan));
    Printf.printf "%-24s %-12s %10s %8s\n" "section" "va" "bytes" "perm";
    List.iter
      (fun (s : Core.Linker.section) ->
        Printf.printf "%-24s 0x%-10x %10d %8s\n" s.Core.Linker.sec_name s.Core.Linker.va
          s.Core.Linker.bytes
          (match s.Core.Linker.perm with
          | Xensim.Pagetable.Read_exec -> "r-x"
          | Xensim.Pagetable.Read_write -> "rw-"
          | Xensim.Pagetable.Read_only -> "r--"))
      image.Core.Linker.sections;
    Printf.printf "entry: 0x%x, clonable: %b\n" image.Core.Linker.entry_va
      (Core.Config.clonable config);
    (* The three-target comparison the workflow of §5.4 relies on: same
       configuration, per-target library closure, image size and boot
       estimate. The chosen target is starred. *)
    let mem_mib = 32 in
    Printf.printf "\ntargets (at %d MiB):\n" mem_mib;
    Printf.printf "  %-15s %5s %9s %10s\n" "target" "libs" "image kB" "boot";
    List.iter
      (fun t ->
        let r = recipe t in
        let p = Core.Specialize.plan ~target:t config r.Core.Unikernel.dce in
        (match Core.Specialize.verify p with
        | Ok () -> ()
        | Error e ->
          Printf.eprintf "verification failed for %s: %s\n" (Core.Target.to_string t) e;
          exit 1);
        let img = Core.Linker.link p ~seed:config.Core.Config.aslr_seed in
        let image_bytes = img.Core.Linker.total_bytes + r.Core.Unikernel.libc_bytes in
        let boot_ns = Core.Unikernel.boot_estimate_ns ~target:t ~mem_mib ~image_bytes in
        Printf.printf "  %-15s %5d %9d %7.1f ms%s\n" (Core.Target.to_string t)
          (List.length p.Core.Specialize.libs)
          (image_bytes / 1024) (Engine.Sim.to_ms boot_ns)
          (if t = target then "  *" else ""))
      Core.Target.all
  in
  Cmd.v (Cmd.info "build" ~doc)
    Term.(const run $ appliance $ dce $ seed $ target_arg $ Plane_cli.trace)

(* ---- boot ---- *)

(* Per-domain vCPU totals, printed under the boot's trace summary. *)
let vcpu_accounting sim =
  match Engine.Sim.vcpu_totals sim with
  | [] -> ()
  | totals ->
    Printf.printf "vcpu accounting:\n";
    Printf.printf "  %5s %10s %12s %12s\n" "dom" "slices" "run_us" "wait_us";
    List.iter
      (fun (v : Engine.Sim.vcpu_totals) ->
        Printf.printf "  %5d %10d %12.1f %12.1f\n" v.Engine.Sim.vt_dom v.Engine.Sim.vt_slices
          (float_of_int v.Engine.Sim.vt_run_ns /. 1e3)
          (float_of_int v.Engine.Sim.vt_wait_ns /. 1e3))
      totals

let boot_cmd =
  let doc = "Boot an appliance on the simulated hypervisor and report the timeline" in
  let appliance = Arg.(required & pos 0 (some appliance_conv) None & info [] ~docv:"APPLIANCE") in
  let mem = Arg.(value & opt int 64 & info [ "mem" ] ~docv:"MIB") in
  let sync = Arg.(value & flag & info [ "sync" ] ~doc:"use the stock synchronous toolstack") in
  let no_seal = Arg.(value & flag & info [ "no-seal" ] ~doc:"hypervisor without the seal patch") in
  let run (name, mk) mem sync no_seal target trace profile flight =
    Plane_cli.run ?trace ?profile ?flight ~after_trace:vcpu_accounting @@ fun () ->
    let mk () = mk ?aslr_seed:None () in
    let w = Core.World.create ~seal_patch:(not no_seal) () in
    let sim = w.Core.World.sim in
    let config = mk () in
    let t0 = Engine.Sim.now sim in
    let u =
      P.run sim
        (Core.Unikernel.boot w.Core.World.hv w.Core.World.toolstack
           ~mode:(if sync then `Sync else `Async)
           ~target ~config ~mem_mib:mem
           ~main:(fun _ -> P.return 0)
           ())
    in
    Engine.Sim.run sim;
    let build =
      Xensim.Toolstack.build_time_ns ~mem_mib:mem
        ~image_bytes:u.Core.Unikernel.image.Core.Linker.total_bytes
    in
    (match u.Core.Unikernel.target with
    | Core.Target.Xen_direct ->
      Printf.printf "booted %s (%d MiB, %s toolstack)\n" name mem (if sync then "sync" else "async");
      Printf.printf "  domain build : %8.1f ms\n" (Engine.Sim.to_ms build);
      Printf.printf "  guest init   : %8.1f ms\n"
        (Engine.Sim.to_ms (u.Core.Unikernel.ready_at_ns - t0 - build))
    | Core.Target.Posix_sockets | Core.Target.Posix_direct ->
      Printf.printf "started %s as a host process (developer target)\n" name);
    Printf.printf "  total        : %8.1f ms\n" (Engine.Sim.to_ms (u.Core.Unikernel.ready_at_ns - t0));
    Printf.printf "  image        : %d kB, %d sections (ASR seed %d)\n"
      (u.Core.Unikernel.image.Core.Linker.total_bytes / 1024)
      (List.length u.Core.Unikernel.image.Core.Linker.sections)
      u.Core.Unikernel.image.Core.Linker.seed;
    Printf.printf "  sealed       : %b\n" u.Core.Unikernel.sealed;
    Printf.printf "  exit code    : %s\n"
      (match Core.Unikernel.exit_code u with Some c -> string_of_int c | None -> "running");
    List.iter
      (fun line -> Printf.printf "  console      | %s\n" line)
      (Devices.Console.log u.Core.Unikernel.console);
    sim
  in
  Cmd.v (Cmd.info "boot" ~doc)
    Term.(
      const run $ appliance $ mem $ sync $ no_seal $ target_arg $ Plane_cli.trace
      $ Plane_cli.profile $ Plane_cli.flight)

let main =
  let doc = "Mirage unikernel construction pipeline on a simulated Xen host" in
  Cmd.group (Cmd.info "mirage_sim" ~version:"1.0" ~doc)
    [
      list_cmd;
      build_cmd;
      boot_cmd;
      Trace_cli.cmd;
      Profile_cli.cmd;
      Monitor_cli.cmd;
      Fleet_cli.cmd;
      Pcap_cli.cmd;
      Ss_cli.cmd;
    ]

let () = exit (Cmd.eval main)
