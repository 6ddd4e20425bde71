open Testlib
module P = Mthread.Promise
open P.Infix

(* ---- library registry ---- *)

let test_registry_find () =
  let tcp = Core.Library_registry.find "tcp" in
  check_string "name" "tcp" tcp.Core.Library_registry.lib_name;
  check_bool "unknown raises" true
    (match Core.Library_registry.find "quantum" with
    | exception Core.Library_registry.Unknown_library _ -> true
    | _ -> false);
  check_bool "mem" true (Core.Library_registry.mem "dns" && not (Core.Library_registry.mem "nope"))

let test_registry_closure () =
  let names plan = List.map (fun l -> l.Core.Library_registry.lib_name) plan in
  let closure = names (Core.Library_registry.dependency_closure [ "http" ]) in
  List.iter
    (fun dep -> check_bool (dep ^ " linked") true (List.mem dep closure))
    [ "runtime"; "lwt"; "cstruct"; "ring"; "netif"; "ethernet"; "arp"; "ipv4"; "tcp"; "regexp"; "utf8"; "http" ];
  check_bool "block drivers elided" false (List.mem "blkif" closure);
  check_bool "dns elided" false (List.mem "dns" closure);
  (* dependencies precede dependants *)
  let idx n = let rec go i = function [] -> -1 | x :: r -> if x = n then i else go (i + 1) r in go 0 closure in
  check_bool "topological" true (idx "runtime" < idx "lwt" && idx "ipv4" < idx "tcp" && idx "tcp" < idx "http")

let test_registry_table1_layout () =
  let by = Core.Library_registry.by_subsystem () in
  Alcotest.(check (list string)) "subsystems"
    [ "Core"; "Network"; "Storage"; "Application"; "Formats" ]
    (List.map fst by);
  let apps = List.assoc "Application" by in
  List.iter (fun l -> check_bool (l ^ " in Application") true (List.mem l apps))
    [ "dns"; "ssh"; "http"; "xmpp"; "smtp" ]

(* ---- config ---- *)

let test_config_typed_access () =
  let cfg =
    Core.Config.make ~app_name:"t" ~roots:[ "dns" ]
      ~bindings:
        [
          Core.Config.static "port" (Core.Config.Int 53);
          Core.Config.dynamic "ip" (Core.Config.Ip (Netstack.Ipaddr.v4 10 0 0 1));
          Core.Config.static "verbose" (Core.Config.Bool true);
        ]
      ()
  in
  check_bool "int" true (Core.Config.int cfg "port" = Some 53);
  check_bool "bool" true (Core.Config.bool cfg "verbose" = Some true);
  check_bool "missing" true (Core.Config.int cfg "nope" = None);
  check_bool "type error" true
    (match Core.Config.string cfg "port" with
    | exception Core.Config.Type_error _ -> true
    | _ -> false)

let test_config_clonable () =
  let dynamic_only =
    Core.Config.make ~app_name:"d" ~roots:[ "dns" ]
      ~bindings:[ Core.Config.dynamic "ip" (Core.Config.String "dhcp") ]
      ()
  in
  check_bool "dynamic config clonable" true (Core.Config.clonable dynamic_only);
  let static =
    Core.Config.make ~app_name:"d" ~roots:[ "dns" ]
      ~bindings:[ Core.Config.static "ip" (Core.Config.String "10.0.0.1") ]
      ()
  in
  check_bool "static config not clonable (2.3.1)" false (Core.Config.clonable static)

let test_config_rejects_unknown_roots () =
  match Core.Config.make ~app_name:"x" ~roots:[ "warp-drive" ] () with
  | exception Core.Library_registry.Unknown_library _ -> ()
  | _ -> Alcotest.fail "unknown root must be rejected"

(* ---- specialisation / DCE (Table 2) ---- *)

let test_dce_shrinks () =
  let cfg = Core.Appliance.dns_appliance () in
  let std = Core.Specialize.plan cfg Core.Specialize.Standard in
  let cln = Core.Specialize.plan cfg Core.Specialize.Ocamlclean in
  check_bool "clean smaller" true
    (cln.Core.Specialize.total_bytes < std.Core.Specialize.total_bytes);
  check_bool "clean at least 2x smaller (paper ~2.4x)" true
    (2 * cln.Core.Specialize.total_bytes < std.Core.Specialize.total_bytes);
  check_bool "same libraries linked" true
    (List.length std.Core.Specialize.libs = List.length cln.Core.Specialize.libs)

let test_table2_magnitudes () =
  (* Within 10% of the paper's Table 2. *)
  let expect =
    [ ("DNS", 449_000, 184_000); ("Web Server", 673_000, 172_000);
      ("OpenFlow switch", 393_000, 164_000); ("OpenFlow controller", 392_000, 168_000) ]
  in
  List.iter
    (fun (name, cfg) ->
      let std = (Core.Specialize.plan cfg Core.Specialize.Standard).Core.Specialize.total_bytes in
      let cln = (Core.Specialize.plan cfg Core.Specialize.Ocamlclean).Core.Specialize.total_bytes in
      let e_std, e_cln =
        let _, a, b = List.find (fun (n, _, _) -> n = name) (List.map (fun (n, a, b) -> (n, a, b)) expect) in
        (a, b)
      in
      let within x e = float_of_int (abs (x - e)) < 0.10 *. float_of_int e in
      check_bool (Printf.sprintf "%s standard %d ~ %d" name std e_std) true (within std e_std);
      check_bool (Printf.sprintf "%s cleaned %d ~ %d" name cln e_cln) true (within cln e_cln))
    (Core.Appliance.table2 ())

let test_verify_detects_closure () =
  let cfg = Core.Appliance.dns_appliance () in
  let plan = Core.Specialize.plan cfg Core.Specialize.Standard in
  check_bool "valid plan verifies" true (Core.Specialize.verify plan = Ok ());
  check_bool "elided list excludes linked" true
    (not (List.mem "dns" (Core.Specialize.elided plan)));
  check_bool "unused libs elided" true (List.mem "xmpp" (Core.Specialize.elided plan))

(* ---- linker / compile-time ASR (2.3.4) ---- *)

let plan () = Core.Specialize.plan (Core.Appliance.dns_appliance ()) Core.Specialize.Ocamlclean

let test_linker_deterministic_per_seed () =
  let a = Core.Linker.link (plan ()) ~seed:1 in
  let b = Core.Linker.link (plan ()) ~seed:1 in
  check (Alcotest.float 1e-9) "identical layouts" 0.0 (Core.Linker.layout_distance a b)

let test_linker_randomises_across_seeds () =
  let a = Core.Linker.link (plan ()) ~seed:1 in
  let b = Core.Linker.link (plan ()) ~seed:2 in
  check_bool "most sections move" true (Core.Linker.layout_distance a b > 0.9)

let test_linker_sections_disjoint_and_wxorx () =
  let img = Core.Linker.link (plan ()) ~seed:7 in
  let rec pairwise = function
    | [] -> ()
    | s :: rest ->
      List.iter
        (fun (t : Core.Linker.section) ->
          check_bool "disjoint" false
            (s.Core.Linker.va < t.Core.Linker.va + t.Core.Linker.bytes
            && t.Core.Linker.va < s.Core.Linker.va + s.Core.Linker.bytes))
        rest;
      pairwise rest
  in
  pairwise img.Core.Linker.sections;
  (* installing yields a sealable W^X table *)
  let pt = Xensim.Pagetable.create () in
  Core.Linker.install img pt;
  Xensim.Pagetable.seal pt;
  List.iter
    (fun (s : Core.Linker.section) ->
      match s.Core.Linker.perm with
      | Xensim.Pagetable.Read_exec ->
        check_bool "text not writable" false (Xensim.Pagetable.can_write pt ~va:s.Core.Linker.va)
      | _ -> check_bool "data not executable" false (Xensim.Pagetable.can_exec pt ~va:s.Core.Linker.va))
    img.Core.Linker.sections

let test_linker_entry_in_text () =
  let img = Core.Linker.link (plan ()) ~seed:3 in
  let pt = Xensim.Pagetable.create () in
  Core.Linker.install img pt;
  check_bool "entry executable" true (Xensim.Pagetable.can_exec pt ~va:img.Core.Linker.entry_va)

(* ---- unikernel boot pipeline ---- *)

let test_unikernel_boot_seals_and_runs () =
  let w = create () in
  let ran = ref false in
  let u =
    run w
      (Core.Unikernel.boot w.hv w.toolstack ~config:(Core.Appliance.dns_appliance ()) ~mem_mib:64
         ~main:(fun _u ->
           ran := true;
           P.return 0)
         ())
  in
  Engine.Sim.run w.sim;
  check_bool "main ran" true !ran;
  check_bool "sealed" true u.Core.Unikernel.sealed;
  check_bool "page table sealed" true
    (Xensim.Pagetable.is_sealed u.Core.Unikernel.domain.Xensim.Domain.pagetable);
  check_bool "exit code recorded" true (Core.Unikernel.exit_code u = Some 0);
  check_bool "domain shut down" true
    (u.Core.Unikernel.domain.Xensim.Domain.state = Xensim.Domain.Shutdown 0)

let test_unikernel_boot_unpatched_hypervisor () =
  let w = create ~seal_patch:false () in
  let u =
    run w
      (Core.Unikernel.boot w.hv w.toolstack ~config:(Core.Appliance.dns_appliance ()) ~mem_mib:64
         ~main:(fun _ -> P.return 0) ())
  in
  check_bool "boots but unsealed (paper 2.3.3)" false u.Core.Unikernel.sealed

let test_unikernel_boot_under_50ms_async () =
  (* Figure 6's headline: Mirage boots in under 50 ms even at 2 GiB. *)
  let w = create () in
  let t0 = Engine.Sim.now w.sim in
  let u =
    run w
      (Core.Unikernel.boot w.hv w.toolstack ~mode:`Async ~config:(Core.Appliance.dns_appliance ())
         ~mem_mib:2048 ~main:(fun _ -> P.return 0) ())
  in
  let startup = u.Core.Unikernel.ready_at_ns - t0 - Xensim.Toolstack.build_time_ns ~mem_mib:2048
      ~image_bytes:u.Core.Unikernel.image.Core.Linker.total_bytes in
  check_bool (Printf.sprintf "guest init %.1f ms < 50 ms" (Engine.Sim.to_ms startup)) true
    (startup < Engine.Sim.ms 50)

let test_unikernel_failing_main_exit_255 () =
  let w = create () in
  let u =
    run w
      (Core.Unikernel.boot w.hv w.toolstack ~config:(Core.Appliance.dns_appliance ()) ~mem_mib:64
         ~main:(fun _ -> P.fail Exit) ())
  in
  Engine.Sim.run w.sim;
  check_bool "crash exit code" true (Core.Unikernel.exit_code u = Some 255)

let test_networked_appliance_answers_ping () =
  let w = create () in
  let client = host w ~platform:Platform.linux_native ~name:"probe" ~ip:"10.0.0.9" () in
  let networked =
    appliance w ~config:(Core.Appliance.dns_appliance ()) ~ip:"10.0.0.53"
      ~main:(fun _h ->
        (* appliance idles; serving happens through the stack *)
        P.sleep w.sim (Engine.Sim.sec 3600) >>= fun () -> P.return 0)
      ()
    |> Core.Appliance.Handle.networked
  in
  let rtt =
    run w
      (Netstack.Icmp4.ping (Netstack.Stack.icmp client.stack)
         ~dst:(Netstack.Stack.address (Core.Appliance.stack networked)) ~seq:1)
  in
  check_bool "unikernel answers ping" true (rtt > 0);
  check_bool "its pagetable is sealed" true
    (Xensim.Pagetable.is_sealed
       networked.Core.Appliance.unikernel.Core.Unikernel.domain.Xensim.Domain.pagetable)

let test_verify_rejects_broken_plan () =
  (* hand-craft a plan missing a dependency *)
  let cfg = Core.Config.make ~app_name:"broken" ~roots:[ "tcp" ] () in
  let good = Core.Specialize.plan cfg Core.Specialize.Standard in
  let broken =
    { good with
      Core.Specialize.libs =
        List.filter (fun l -> l.Core.Library_registry.lib_name <> "ipv4") good.Core.Specialize.libs
    }
  in
  (match Core.Specialize.verify broken with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "missing dependency must fail verification");
  (* and one with a stray unrequested service *)
  let stray =
    { good with
      Core.Specialize.libs = Core.Library_registry.find "smtp" :: good.Core.Specialize.libs }
  in
  match Core.Specialize.verify stray with
  | Error msg -> check_bool "names the stray" true (String.length msg > 0)
  | Ok () -> Alcotest.fail "unrequested service must fail verification"

let test_sync_boot_slower_than_async () =
  let measure mode =
    let w = create () in
    (* a competing build occupies the toolstack *)
    Mthread.Promise.async (fun () ->
        Mthread.Promise.bind
          (Xensim.Toolstack.boot w.toolstack ~mode ~profile:Baseline.Linux_vm.debian_apache_profile
             ~name:"noisy-neighbour" ~mem_mib:1024 ~platform:Platform.linux_pv)
          (fun _ -> Mthread.Promise.return ()));
    let t0 = Engine.Sim.now w.sim in
    let u =
      run w
        (Core.Unikernel.boot w.hv w.toolstack ~mode ~config:(Core.Appliance.dns_appliance ()) ~mem_mib:32
           ~main:(fun _ -> P.return 0) ())
    in
    u.Core.Unikernel.ready_at_ns - t0
  in
  check_bool "sync queues behind the neighbour" true (measure `Sync > measure `Async)

let test_developer_workflow_targets () =
  (* 5.4: posix-sockets -> posix-direct -> xen-direct. Both POSIX targets
     boot fast as processes and stay unsealed; the Xen target seals, and
     its dead-code-eliminated image is the smallest. *)
  let boot_with target =
    let w = create () in
    let t0 = Engine.Sim.now w.sim in
    let u =
      run w
        (Core.Unikernel.boot w.hv w.toolstack ~target ~config:(Core.Appliance.dns_appliance ())
           ~mem_mib:64 ~main:(fun _ -> P.return 0) ())
    in
    Engine.Sim.run w.sim;
    (u, u.Core.Unikernel.ready_at_ns - t0)
  in
  let sockets, t_sockets = boot_with Core.Target.Posix_sockets in
  let direct, _ = boot_with Core.Target.Posix_direct in
  let xen, t_xen = boot_with Core.Target.Xen_direct in
  check_bool "posix targets unsealed" true
    ((not sockets.Core.Unikernel.sealed) && not direct.Core.Unikernel.sealed);
  check_bool "xen target sealed" true xen.Core.Unikernel.sealed;
  check_bool "process spawn beats domain build" true (t_sockets < t_xen);
  check_bool "xen image smallest (DCE + no libc)" true
    (xen.Core.Unikernel.image.Core.Linker.total_bytes
    < sockets.Core.Unikernel.image.Core.Linker.total_bytes);
  check_bool "posix runs on the host platform" true
    (sockets.Core.Unikernel.domain.Xensim.Domain.platform.Platform.name
    = Platform.linux_native.Platform.name);
  check_bool "exit codes work everywhere" true
    (Core.Unikernel.exit_code sockets = Some 0 && Core.Unikernel.exit_code xen = Some 0)

(* ---- worlds own their per-domain state ----

   Domain ids restart with each hypervisor, so a table keyed by domain
   id that outlives its world answers for the wrong domain in the next
   one. *)

let boot_dns w ~main =
  run w
    (Core.Unikernel.boot w.hv w.toolstack ~config:(Core.Appliance.dns_appliance ()) ~mem_mib:32
       ~main ())

let test_exit_code_is_per_world () =
  let a = create () in
  let ua = boot_dns a ~main:(fun _ -> P.return 3) in
  Engine.Sim.run a.sim;
  check_bool "world A's unikernel exited 3" true (Core.Unikernel.exit_code ua = Some 3);
  let b = create () in
  let ub = boot_dns b ~main:(fun _ -> fst (P.wait ())) in
  Engine.Sim.run b.sim;
  check_int "same domain id in both worlds" ua.Core.Unikernel.domain.Xensim.Domain.id
    ub.Core.Unikernel.domain.Xensim.Domain.id;
  check_bool "world B's running unikernel has no exit code" true
    (Core.Unikernel.exit_code ub = None)

let test_console_is_per_world () =
  let a = create () in
  let ua = boot_dns a ~main:(fun _ -> P.return 0) in
  Engine.Sim.run a.sim;
  let b = create () in
  let host = host b ~name:"plain" ~ip:"10.0.0.9" () in
  check_int "the plain host reuses the unikernel's domain id"
    ua.Core.Unikernel.domain.Xensim.Domain.id host.dom.Xensim.Domain.id;
  let ub = boot_dns b ~main:(fun _ -> P.return 0) in
  Engine.Sim.run b.sim;
  check_int "world A's console keeps its one banner" 1
    (List.length (Devices.Console.log ua.Core.Unikernel.console));
  check_int "world B's console holds only its own banner" 1
    (List.length (Devices.Console.log ub.Core.Unikernel.console));
  check_bool "consoles are not shared" true
    (ua.Core.Unikernel.console != ub.Core.Unikernel.console)

(* Boot and reap 1000 appliances: afterwards the hypervisor holds dom0
   and the host only, and no metrics series names a reaped domain. *)
let test_world_reaps_1000_appliances () =
  Trace.Metrics.reset ();
  Trace.Metrics.enable ();
  Fun.protect ~finally:Trace.quiesce (fun () ->
      let w = create () in
      let host = host w ~name:"probe" ~ip:"10.0.0.9" () in
      let reaped =
        List.init 1000 (fun _ ->
            let h =
              appliance w ~config:(Core.Appliance.web_server ()) ~ip:"10.0.0.53"
                ~main:(fun h ->
                  Core.Exporter.mount h ~port:9100;
                  Core.Appliance.Handle.stopped h >>= fun () -> P.return 0)
                ()
            in
            let id = (Core.Appliance.Handle.domain h).Xensim.Domain.id in
            check_bool "a live appliance has metrics series" true
              (Trace.Metrics.snapshot ~dom:id () <> []);
            run w (Core.Appliance.Handle.shutdown h);
            id)
      in
      Engine.Sim.run w.sim;
      Alcotest.(check (list int))
        "only dom0 and the host are left"
        [ w.dom0.Xensim.Domain.id; host.dom.Xensim.Domain.id ]
        (List.map (fun d -> d.Xensim.Domain.id) (Xensim.Hypervisor.domains w.hv));
      check_bool "no series for a reaped domain" true
        (List.for_all (fun id -> Trace.Metrics.snapshot ~dom:id () = []) reaped))

let prop_aslr_seed_coverage =
  qtest ~count:20 "distinct seeds give distinct layouts" QCheck.(pair small_nat small_nat)
    (fun (a, b) ->
      let p = plan () in
      let ia = Core.Linker.link p ~seed:a in
      let ib = Core.Linker.link p ~seed:b in
      if a = b then Core.Linker.layout_distance ia ib = 0.0
      else Core.Linker.layout_distance ia ib > 0.5)

let () =
  Alcotest.run "core"
    [
      ( "registry",
        [
          Alcotest.test_case "find" `Quick test_registry_find;
          Alcotest.test_case "dependency closure" `Quick test_registry_closure;
          Alcotest.test_case "table 1 layout" `Quick test_registry_table1_layout;
        ] );
      ( "config",
        [
          Alcotest.test_case "typed access" `Quick test_config_typed_access;
          Alcotest.test_case "clonability" `Quick test_config_clonable;
          Alcotest.test_case "unknown roots rejected" `Quick test_config_rejects_unknown_roots;
        ] );
      ( "specialise",
        [
          Alcotest.test_case "dce shrinks" `Quick test_dce_shrinks;
          Alcotest.test_case "table 2 magnitudes" `Quick test_table2_magnitudes;
          Alcotest.test_case "verify closure" `Quick test_verify_detects_closure;
          Alcotest.test_case "verify rejects broken plans" `Quick test_verify_rejects_broken_plan;
        ] );
      ( "linker",
        [
          Alcotest.test_case "deterministic per seed" `Quick test_linker_deterministic_per_seed;
          Alcotest.test_case "randomises across seeds" `Quick test_linker_randomises_across_seeds;
          Alcotest.test_case "disjoint and W^X" `Quick test_linker_sections_disjoint_and_wxorx;
          Alcotest.test_case "entry in text" `Quick test_linker_entry_in_text;
          prop_aslr_seed_coverage;
        ] );
      ( "unikernel",
        [
          Alcotest.test_case "boot seals and runs" `Quick test_unikernel_boot_seals_and_runs;
          Alcotest.test_case "unpatched hypervisor" `Quick test_unikernel_boot_unpatched_hypervisor;
          Alcotest.test_case "guest init under 50ms" `Quick test_unikernel_boot_under_50ms_async;
          Alcotest.test_case "failing main exits 255" `Quick test_unikernel_failing_main_exit_255;
          Alcotest.test_case "networked appliance pings" `Quick test_networked_appliance_answers_ping;
          Alcotest.test_case "sync boot queues" `Quick test_sync_boot_slower_than_async;
          Alcotest.test_case "developer workflow targets (5.4)" `Quick
            test_developer_workflow_targets;
        ] );
      ( "world",
        [
          Alcotest.test_case "exit code is per world" `Quick test_exit_code_is_per_world;
          Alcotest.test_case "console is per world" `Quick test_console_is_per_world;
          Alcotest.test_case "boot and reap 1000 appliances" `Quick
            test_world_reaps_1000_appliances;
        ] );
    ]
