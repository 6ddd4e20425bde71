(* mirage_sim monitor: the self-hosted monitoring plane, end to end.

   Boots N web-server appliances with /metrics mounted (one line of
   their main), a load-generating host, and the monitor unikernel, which
   discovers the fleet from the bridge's service directory and scrapes
   it over real simulated TCP. At the end of the virtual-time run it
   renders a dashboard: per-target sparklines, SLO verdicts, and the
   alert timeline. [--flap] takes one appliance's link down mid-run so
   the goodput SLO fires and resolves. *)

open Cmdliner
module P = Mthread.Promise
module Mon = Monitor.Make (Netstack.Device.Tcp)

let ( >>= ) = P.bind

let metrics_port = 9100

(* ---- dashboard helpers ---- *)

(* Successive-delta rates (per second) of a counter series. *)
let rate_points series =
  let rec go acc = function
    | (t0, v0) :: ((t1, v1) :: _ as rest) ->
      go (if t1 > t0 then ((v1 -. v0) *. 1e9 /. float_of_int (t1 - t0)) :: acc else acc) rest
    | _ -> List.rev acc
  in
  go [] (Monitor.Series.to_list series)

let value_points series = List.map snd (Monitor.Series.to_list series)

let fmt_rate v =
  if v >= 1e6 then Printf.sprintf "%.1fM" (v /. 1e6)
  else if v >= 1e3 then Printf.sprintf "%.1fk" (v /. 1e3)
  else Printf.sprintf "%.1f" v

(* ---- the scenario ---- *)

let run_monitor seed servers duration_ms interval_ms flap trace =
  Plane_cli.run ?trace @@ fun () ->
  Trace.Metrics.enable ();
  let w = Core.World.create ~seed () in
  let sim = w.Core.World.sim and bridge = w.Core.World.bridge in
  let duration_ns = Engine.Sim.ms duration_ms in
  let interval_ns = Engine.Sim.ms interval_ms in

  (* -- the fleet: N web appliances, each scrapable -- *)
  let router = Uhttp.Router.create () in
  Uhttp.Router.add router Uhttp.Http_wire.GET "/" (fun _ _ ->
      P.return (Uhttp.Http_wire.response ~status:200 (String.make 512 'x')));
  let boot_web i =
    Core.World.appliance w
      ~config:(Core.Appliance.web_server ~aslr_seed:(0x3eb + i) ())
      ~ip:(Printf.sprintf "10.0.0.%d" (10 + i))
      ~main:(fun h ->
        Core.Exporter.mount h ~port:metrics_port;
        let dom = Core.Appliance.Handle.domain h in
        ignore
          (Core.Apps.Net.Http.of_router sim ~dom
             ~tcp:(Netstack.Stack.tcp (Core.Appliance.Handle.stack h))
             ~port:80 router);
        P.sleep sim (duration_ns * 2) >>= fun () -> P.return 0)
      ()
    |> Core.Appliance.Handle.networked
  in
  let webs = List.init servers boot_web in

  (* -- load generator: one host, an independent request loop per server
     (a faulted target must not depress the others' request rates) -- *)
  let client = Core.World.host w ~account_cpu:false ~name:"loadgen" ~ip:"10.0.0.9" () in
  let client_tcp = Netstack.Stack.tcp client.Core.World.stack in
  List.iter
    (fun (n : Core.Appliance.networked) ->
      let dst = Core.Appliance.address n in
      P.async (fun () ->
          Scenario.http_load sim client_tcp ~dst ~timeout_ns:(Engine.Sim.ms 200)
            ~gap_ns:(Engine.Sim.ms 2) ~backoff_ns:(Engine.Sim.ms 5) ()))
    webs;

  (* -- fault injection: one appliance's link flaps mid-run -- *)
  (if flap then
     match webs with
     | first :: _ ->
       let nic = Devices.Netif.nic (Core.Appliance.netif first) in
       let down_at = duration_ns * 3 / 10 and down_for = duration_ns * 3 / 10 in
       Netsim.Bridge.set_faults bridge nic
         (Netsim.Faults.make ~flap:(down_at, down_for, duration_ns * 100) ());
       Printf.printf "flap: %s link down %.0f..%.0f ms\n"
         first.Core.Appliance.unikernel.Core.Unikernel.config.Core.Config.app_name
         (Engine.Sim.to_ms down_at)
         (Engine.Sim.to_ms (down_at + down_for))
     | [] -> ());

  (* -- the monitor unikernel -- *)
  let goodput_floor = 20_000.0 (* bytes/s *) in
  let rules =
    [
      Monitor.Slo.rule "goodput-floor"
        ~source:(Monitor.Slo.Rate "http_bytes_sent")
        ~cmp:Monitor.Slo.Below ~threshold:goodput_floor
        ~for_ns:(2 * interval_ns) ~hold_ns:(2 * interval_ns);
      Monitor.Slo.rule "error-rate"
        ~source:(Monitor.Slo.Rate "http_bad_requests")
        ~cmp:Monitor.Slo.Above ~threshold:0.5
        ~for_ns:(2 * interval_ns) ~hold_ns:(2 * interval_ns);
      Monitor.Slo.rule "p99-latency"
        ~source:(Monitor.Slo.Value "http_request_ns{quantile=\"0.99\"}")
        ~cmp:Monitor.Slo.Above
        ~threshold:(float_of_int (Engine.Sim.ms 50))
        ~for_ns:(2 * interval_ns) ~hold_ns:(2 * interval_ns);
    ]
  in
  let monitor_ref = ref None in
  let _mon =
    Core.World.appliance w ~config:(Core.Appliance.monitor_appliance ()) ~ip:"10.0.0.100"
      ~main:(fun h ->
        let dom = Core.Appliance.Handle.domain h in
        let m =
          Mon.create sim ~dom:dom.Xensim.Domain.id
            ~tcp:(Netstack.Stack.tcp (Core.Appliance.Handle.stack h))
            ~interval_ns ~rules ()
        in
        List.iter
          (fun (name, ip, port) ->
            Mon.add_target m ~name ~addr:(Netstack.Ipaddr.of_string ip) ~port)
          (Monitor.discover bridge);
        monitor_ref := Some m;
        Mon.run m >>= fun () -> P.return 0)
      ()
  in
  let started = Engine.Sim.now sim in
  Engine.Sim.run ~until:(started + duration_ns) sim;
  let m = match !monitor_ref with Some m -> m | None -> failwith "monitor did not boot" in

  (* -- dashboard -- *)
  let width = 44 in
  Printf.printf "\n==== monitoring plane: %d targets, %d scrape rounds over %.0f ms ====\n"
    (List.length (Mon.targets m))
    (Mon.rounds m)
    (Engine.Sim.to_ms duration_ns);
  List.iter
    (fun tg ->
      let name = tg.Mon.tg_name in
      Printf.printf "\n%s (scrapes ok %d, failed %d)\n" name tg.Mon.tg_ok
        tg.Mon.tg_failed;
      let spark label points unit_ =
        match points with
        | [] -> Printf.printf "  %-12s %-8s (no data)\n" label unit_
        | pts ->
          let last = List.nth pts (List.length pts - 1) in
          Printf.printf "  %-12s %-8s |%s| last %s\n" label unit_
            (Monitor.sparkline ~width pts) (fmt_rate last)
      in
      let counter_rate key =
        match Mon.series tg key with Some s -> rate_points s | None -> []
      in
      let gauge_vals key =
        match Mon.series tg key with Some s -> value_points s | None -> []
      in
      spark "req/s" (counter_rate "http_requests") "";
      spark "goodput" (counter_rate "http_bytes_sent") "B/s";
      spark "p99 lat" (List.map (fun v -> v /. 1e3) (gauge_vals "http_request_ns{quantile=\"0.99\"}")) "us";
      spark "vcpu run" (counter_rate "vcpu_run_ns") "ns/s";
      (* SLO verdicts for this target *)
      List.iter
        (fun (r : Monitor.Slo.rule) ->
          let fired =
            List.filter
              (fun a -> a.Monitor.al_target = name && a.Monitor.al_rule = r.Monitor.Slo.r_name)
              (Mon.alerts m)
          in
          let verdict =
            match fired with
            | [] -> "OK"
            | al ->
              let open_now = List.exists (fun a -> a.Monitor.al_resolved_ns = None) al in
              Printf.sprintf "%s (%d alert%s)"
                (if open_now then "FIRING" else "fired, resolved")
                (List.length al)
                (if List.length al = 1 then "" else "s")
          in
          Printf.printf "  slo %-22s %s\n" r.Monitor.Slo.r_name verdict)
        rules)
    (Mon.targets m);
  (match Mon.alerts m with
  | [] -> Printf.printf "\nalert timeline: quiet (no SLO breaches)\n"
  | alerts ->
    Printf.printf "\nalert timeline:\n";
    List.iter
      (fun a ->
        Printf.printf "  [%8.1f ms] FIRE    %-22s %s\n"
          (Engine.Sim.to_ms (a.Monitor.al_fired_ns - started))
          a.Monitor.al_rule a.Monitor.al_target;
        match a.Monitor.al_resolved_ns with
        | Some t ->
          Printf.printf "  [%8.1f ms] RESOLVE %-22s %s\n"
            (Engine.Sim.to_ms (t - started))
            a.Monitor.al_rule a.Monitor.al_target
        | None -> ())
      alerts)

let cmd =
  let doc = "Boot an appliance fleet plus the monitor unikernel; render the scrape dashboard" in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Simulation PRNG seed.") in
  let servers =
    Arg.(value & opt int 3 & info [ "servers" ] ~docv:"N" ~doc:"Number of web appliances to boot.")
  in
  let duration =
    Arg.(value & opt int 3000 & info [ "duration-ms" ] ~docv:"MS" ~doc:"Virtual run length.")
  in
  let interval =
    Arg.(value & opt int 100 & info [ "interval-ms" ] ~docv:"MS" ~doc:"Scrape interval.")
  in
  let flap =
    Arg.(
      value & flag
      & info [ "flap" ] ~doc:"Take one appliance's link down mid-run (fires the goodput SLO).")
  in
  Cmd.v (Cmd.info "monitor" ~doc)
    Term.(const run_monitor $ seed $ servers $ duration $ interval $ flap $ Plane_cli.trace)
