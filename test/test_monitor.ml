(* The monitoring plane end-to-end: three web appliances booted with
   /metrics mounted ([Core.Exporter.mount]), a load generator, and a
   scraper polling every exporter over real simulated TCP. Checks that
   scraped counters agree exactly with the exporters' registries once
   the workload quiesces, that the goodput SLO fires under a link-flap
   fault schedule and never on a clean run, and that the whole scenario
   replays deterministically under the same seed.

   Everything here shares the process-global metrics registry, so each
   scenario resets it on entry and disables it on exit. *)

open Testlib
module P = Mthread.Promise
module Mon = Monitor.Make (Netstack.Device.Tcp)

let ( >>= ) = P.bind
let ms = Engine.Sim.ms
let n_webs = 3
let interval_ns = ms 100
let duration_ns = ms 2500
let goodput_floor = 20_000.0 (* bytes/s; the clean workload runs ~100x above *)

type outcome = {
  o_monitor : Mon.t;
  o_web_doms : int list;  (* domain ids of the exporters, boot order *)
  o_started : int;
}

(* Boot the fleet, drive load, scrape, optionally flap the first
   exporter's link mid-run, then quiesce the workload and let the
   monitor take a final round against the now-static registries. *)
let scenario ?(seed = 42) ?(flap = false) () =
  Trace.Metrics.reset ();
  Trace.Metrics.enable ();
  let w = create ~seed () in
  let router = Uhttp.Router.create () in
  Uhttp.Router.add router Uhttp.Http_wire.GET "/" (fun _ _ ->
      P.return (Uhttp.Http_wire.response ~status:200 (String.make 512 'x')));
  let boot_web i =
    appliance w
      ~config:(Core.Appliance.web_server ~aslr_seed:(0x3eb + i) ())
      ~ip:(Printf.sprintf "10.0.0.%d" (10 + i))
      ~main:(fun h ->
        Core.Exporter.mount h ~port:9100;
        let dom = Core.Appliance.Handle.domain h in
        ignore
          (Core.Apps.Net.Http.of_router w.sim ~dom
             ~tcp:(Netstack.Stack.tcp (Core.Appliance.Handle.stack h))
             ~port:80 router);
        P.sleep w.sim (Engine.Sim.sec 3600) >>= fun () -> P.return 0)
      ()
    |> Core.Appliance.Handle.networked
  in
  let webs = List.init n_webs boot_web in
  let client = host w ~platform:Platform.linux_native ~account_cpu:false ~name:"load" ~ip:"10.0.0.9" () in
  let client_tcp = Netstack.Stack.tcp client.stack in
  let stopping = ref false in
  List.iter
    (fun (n : Core.Appliance.networked) ->
      let dst = Core.Appliance.address n in
      P.async (fun () ->
          Scenario.http_load w.sim client_tcp ~dst ~timeout_ns:(ms 200) ~gap_ns:(ms 2)
            ~backoff_ns:(ms 5) ~stop:stopping ()))
    webs;
  (if flap then
     match webs with
     | first :: _ ->
       let nic = Devices.Netif.nic (Core.Appliance.netif first) in
       (* down from 30% to 70% of the run; period far beyond the run so
          the link flaps exactly once *)
       Netsim.Bridge.set_faults w.bridge nic
         (Netsim.Faults.make
            ~flap:(Engine.Sim.now w.sim + (duration_ns * 3 / 10), duration_ns * 4 / 10, duration_ns * 100)
            ())
     | [] -> ());
  let mon_host = host w ~name:"monitor" ~ip:"10.0.0.100" () in
  let rules =
    [
      Monitor.Slo.rule "goodput-floor"
        ~source:(Monitor.Slo.Rate "http_bytes_sent")
        ~cmp:Monitor.Slo.Below ~threshold:goodput_floor;
    ]
  in
  let m =
    Mon.create w.sim ~tcp:(Netstack.Stack.tcp mon_host.stack) ~interval_ns ~rules ()
  in
  List.iter
    (fun (name, ip, port) ->
      Mon.add_target m ~name ~addr:(Netstack.Ipaddr.of_string ip) ~port)
    (Monitor.discover w.bridge);
  P.async (fun () -> Mon.run m);
  let started = Engine.Sim.now w.sim in
  Engine.Sim.run w.sim ~until:(started + duration_ns);
  (* quiesce: stop the load, drain in-flight requests, then give the
     monitor a few more rounds against registries that no longer move *)
  stopping := true;
  Engine.Sim.run w.sim ~until:(started + duration_ns + ms 500);
  let web_doms =
    List.map
      (fun (n : Core.Appliance.networked) ->
        n.Core.Appliance.unikernel.Core.Unikernel.domain.Xensim.Domain.id)
      webs
  in
  Trace.Metrics.disable ();
  { o_monitor = m; o_web_doms = web_doms; o_started = started }

(* The registry value an exporter would render for a plain counter. *)
let registry_counter ~dom name =
  match
    List.find_opt
      (fun s -> s.Trace.Metrics.s_name = name && s.Trace.Metrics.s_dom = dom)
      (Trace.Metrics.snapshot ~dom ())
  with
  | Some s -> s.Trace.Metrics.s_value
  | None -> Alcotest.failf "metric %s not registered for dom %d" name dom

let last_scraped tg key =
  match Mon.series tg key with
  | Some s -> (match Monitor.Series.last s with Some (_, v) -> v | None -> nan)
  | None -> Alcotest.failf "target %s has no series %s" tg.Mon.tg_name key

let test_scrape_matches_registry () =
  let o = scenario () in
  let targets = Mon.targets o.o_monitor in
  check_int "all three exporters discovered and scraped" n_webs (List.length targets);
  List.iter
    (fun tg ->
      check_bool
        (Printf.sprintf "%s scraped successfully" tg.Mon.tg_name)
        true
        (tg.Mon.tg_ok > 5);
      check_int (tg.Mon.tg_name ^ " no failed scrapes on clean run") 0 tg.Mon.tg_failed)
    targets;
  (* with the workload quiesced before the final rounds, the last
     scraped sample of each workload counter must equal the exporter's
     registry exactly — the exposition path loses nothing *)
  List.iteri
    (fun i dom ->
      let tg = List.nth targets i in
      List.iter
        (fun counter ->
          check
            (Alcotest.float 0.0)
            (Printf.sprintf "%s %s scraped = registry" tg.Mon.tg_name counter)
            (float_of_int (registry_counter ~dom counter))
            (last_scraped tg counter))
        [ "http_requests"; "http_bytes_sent" ];
      check_bool
        (tg.Mon.tg_name ^ " served real traffic")
        true
        (registry_counter ~dom "http_requests" > 50))
    o.o_web_doms

let test_clean_run_stays_quiet () =
  let o = scenario () in
  check_int "no alerts on a clean run" 0 (List.length (Mon.alerts o.o_monitor))

let test_goodput_slo_fires_under_flap () =
  let o = scenario ~flap:true () in
  let alerts = Mon.alerts o.o_monitor in
  check_bool "at least one alert fired" true (alerts <> []);
  let faulted =
    match Mon.targets o.o_monitor with tg :: _ -> tg.Mon.tg_name | [] -> assert false
  in
  List.iter
    (fun (a : Monitor.alert) ->
      check_string "only the goodput rule fired" "goodput-floor" a.Monitor.al_rule;
      check_string "only the flapped target fired" faulted a.Monitor.al_target;
      check_bool "fired after the outage began" true
        (a.Monitor.al_fired_ns > o.o_started + (duration_ns * 3 / 10)))
    alerts;
  (* the link comes back at 70%; with the workload still running the
     alert must resolve before the quiesce window ends *)
  check_bool "alert resolved after the link returned" true
    (List.exists (fun (a : Monitor.alert) -> a.Monitor.al_resolved_ns <> None) alerts)

(* Two same-seed runs must produce identical alert timelines, identical
   round counts, and identical scraped series — the monitoring plane is
   part of the deterministic simulation, not an observer outside it. *)
let fingerprint o =
  let tgs = Mon.targets o.o_monitor in
  let series_fp tg =
    String.concat ";"
      (List.map
         (fun key ->
           match Mon.series tg key with
           | None -> key
           | Some s ->
             Printf.sprintf "%s:%d:%s" key (Monitor.Series.length s)
               (String.concat ","
                  (List.map
                     (fun (t, v) -> Printf.sprintf "%d=%.3f" t v)
                     (Monitor.Series.to_list s))))
         (Mon.series_keys tg))
  in
  ( Mon.rounds o.o_monitor,
    List.map (fun tg -> (tg.Mon.tg_name, tg.Mon.tg_ok, tg.Mon.tg_failed, series_fp tg)) tgs,
    List.map
      (fun (a : Monitor.alert) ->
        (a.Monitor.al_rule, a.Monitor.al_target, a.Monitor.al_fired_ns, a.Monitor.al_resolved_ns))
      (Mon.alerts o.o_monitor) )

let test_deterministic_replay () =
  let a = fingerprint (scenario ~seed:7 ~flap:true ()) in
  let b = fingerprint (scenario ~seed:7 ~flap:true ()) in
  check_bool "same seed, same scrape series and alert timeline" true (a = b)

let () =
  Alcotest.run "monitor"
    [
      ( "monitor",
        [
          Alcotest.test_case "scrapes match exporter registries" `Quick
            test_scrape_matches_registry;
          Alcotest.test_case "clean run stays quiet" `Quick test_clean_run_stays_quiet;
          Alcotest.test_case "goodput SLO fires under link flap" `Quick
            test_goodput_slo_fires_under_flap;
          Alcotest.test_case "deterministic replay" `Quick test_deterministic_replay;
        ] );
    ]
