open Testlib
module P = Mthread.Promise
open P.Infix
module Appliances = Baseline.Appliances.Make (Netstack.Device.Tcp)

(* ---- boot profiles (Figures 5/6 inputs) ---- *)

let test_profiles_ordering () =
  let at mem profile = profile.Xensim.Toolstack.kernel_init_ns ~mem_mib:mem in
  let minimal = Baseline.Linux_vm.minimal_profile in
  let debian = Baseline.Linux_vm.debian_apache_profile in
  check_bool "debian slower than minimal" true (at 256 debian > at 256 minimal);
  check_bool "linux init grows with memory" true (at 2048 minimal > at 64 minimal);
  (* Figure 6 magnitudes: linux-pv ~0.2s at 64 MiB to ~0.6s at 2 GiB *)
  check_bool "64MiB in range" true
    (at 64 minimal > Engine.Sim.ms 150 && at 64 minimal < Engine.Sim.ms 350);
  check_bool "2GiB in range" true
    (at 2048 minimal > Engine.Sim.ms 400 && at 2048 minimal < Engine.Sim.ms 800)

let test_debian_phase_inventory () =
  let phases = Baseline.Linux_vm.debian_phases in
  check_bool "several phases" true (List.length phases >= 4);
  check_bool "apache is a phase" true
    (List.exists (fun (n, _) -> n = "apache2 start") phases)

(* ---- appliances ---- *)

let web_world ~vcpus =
  let w = create () in
  let server = host w ~platform:Platform.linux_pv ~vcpus ~name:"linuxvm" ~ip:"10.0.0.80" () in
  let client =
    host w ~platform:Platform.linux_native ~account_cpu:false ~name:"load" ~ip:"10.0.0.2" ()
  in
  (w, server, client)

let test_apache_serves_and_rejects_overload () =
  let w, server, client = web_world ~vcpus:1 in
  let apache =
    Appliances.apache_static w.sim ~dom:server.dom ~tcp:(Netstack.Stack.tcp server.stack)
      ~port:80
  in
  (* A single request works. *)
  let resp =
    run w
      (Core.Apps.Net.Http_client.get_once (Netstack.Stack.tcp client.stack)
         ~dst:(Netstack.Stack.address server.stack) ~port:80 "/index.html")
  in
  check_int "static page" 200 resp.Uhttp.Http_wire.status;
  check_int "served" 1 (Appliances.requests_served apache);
  (* Open far more concurrent connections than the worker pool (32/vCPU):
     the surplus is refused. *)
  let hold_connection () =
    P.catch
      (fun () ->
        Netstack.Tcp.connect (Netstack.Stack.tcp client.stack)
          ~dst:(Netstack.Stack.address server.stack) ~dst_port:80
        >>= fun flow ->
        (* Hold the connection open without sending; poll its fate. *)
        P.sleep w.sim (Engine.Sim.ms 50) >>= fun () ->
        P.return (if Netstack.Tcp.state_name flow = "CLOSED" then `Rejected else `Held))
      (fun _ -> P.return `Rejected)
  in
  let fates = run w (P.all (List.init 100 (fun _ -> hold_connection ()))) in
  let rejected = List.length (List.filter (fun f -> f = `Rejected) fates) in
  check_bool (Printf.sprintf "overload rejected (%d/100)" rejected) true (rejected > 0);
  check_bool "rejections counted" true (Appliances.connections_rejected apache > 0)

let test_webpy_request_cost_dominates () =
  check_bool "python path much dearer than mirage path" true
    (Baseline.Appliances.webpy_request_cost_ns > 3 * Baseline.Appliances.mirage_request_cost_ns)

let test_nginx_webpy_end_to_end () =
  let w, server, client = web_world ~vcpus:1 in
  let handler _req = P.return (Uhttp.Http_wire.response ~status:200 "tweets") in
  let app =
    Appliances.nginx_webpy w.sim ~dom:server.dom ~tcp:(Netstack.Stack.tcp server.stack)
      ~port:80 handler
  in
  let resp =
    run w
      (Core.Apps.Net.Http_client.get_once (Netstack.Stack.tcp client.stack)
         ~dst:(Netstack.Stack.address server.stack) ~port:80 "/tweets/alice")
  in
  check_int "200" 200 resp.Uhttp.Http_wire.status;
  check_int "served" 1 (Appliances.requests_served app)

(* ---- Loc (Figure 14a) ---- *)

let test_loc_ratios () =
  List.iter
    (fun role ->
      let linux = Baseline.Loc.total (Baseline.Loc.linux_appliance ~role) in
      let mirage = Baseline.Loc.total (Baseline.Loc.mirage_appliance ~role) in
      check_bool "linux at least 4x mirage (paper: 4-5x)" true (linux >= 4 * mirage);
      check_bool "mirage appliance nonempty" true (mirage > 50_000))
    [ `Dns; `Web_static; `Web_dynamic; `Openflow ]

let test_loc_specialisation_varies_by_role () =
  let loc role = Baseline.Loc.total (Baseline.Loc.mirage_appliance ~role) in
  check_bool "roles differ (per-appliance specialisation)" true
    (loc `Dns <> loc `Openflow || loc `Web_dynamic <> loc `Web_static)

let () =
  Alcotest.run "baseline"
    [
      ( "boot_profiles",
        [
          Alcotest.test_case "ordering and ranges" `Quick test_profiles_ordering;
          Alcotest.test_case "debian phases" `Quick test_debian_phase_inventory;
        ] );
      ( "appliances",
        [
          Alcotest.test_case "apache serves and rejects overload" `Quick
            test_apache_serves_and_rejects_overload;
          Alcotest.test_case "webpy cost dominates" `Quick test_webpy_request_cost_dominates;
          Alcotest.test_case "nginx+webpy end to end" `Quick test_nginx_webpy_end_to_end;
        ] );
      ( "loc",
        [
          Alcotest.test_case "4-5x ratios" `Quick test_loc_ratios;
          Alcotest.test_case "per-role specialisation" `Quick test_loc_specialisation_varies_by_role;
        ] );
    ]
