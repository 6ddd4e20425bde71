(* Fleet-scale serving: the lifecycle handle (drain/shutdown), the
   service-directory withdraw regression, the L4 balancer's policies and
   health checks, and the closed-loop autoscaler end to end. *)

open Testlib
module P = Mthread.Promise
module Handle = Core.Appliance.Handle
module LB = Fleet.Orch.LB

let ( >>= ) = P.bind

let sec = Engine.Sim.sec
let ms = Engine.Sim.ms

(* Boot a web appliance at [ip] serving [handler] on port 80, drain hook
   registered, /metrics advertised. *)
let boot_web w ?(name = "web-server") ?(cost_ns = 10_000_000) ~ip handler =
  let config = Core.Appliance.web_server () in
  let config = { config with Core.Config.app_name = name } in
  let srv_ref = ref None in
  let h =
    appliance w ~config ~ip
      ~main:(fun h ->
        Core.Exporter.mount h ~port:9100;
        let srv =
          Core.Apps.Net.Http.create w.sim ~dom:(Handle.domain h) ~per_request_cost_ns:cost_ns
            ~tcp:(Netstack.Stack.tcp (Handle.stack h))
            ~port:80 handler
        in
        srv_ref := Some srv;
        Handle.on_drain h (fun () -> Core.Apps.Net.Http.drain srv);
        Handle.stopped h >>= fun () -> P.return 0)
      ()
  in
  (h, Option.get !srv_ref)

let echo_handler (req : Uhttp.Http_wire.request) =
  P.return (Uhttp.Http_wire.response ~status:200 ("echo:" ^ req.Uhttp.Http_wire.path))

(* ---- the withdraw/detach regression ----

   Before this fix, a destroyed appliance stayed in the bridge's service
   directory forever: the monitor kept discovering and scraping the
   corpse (masked only by the stale-series -> rate-0 rule). Shutdown must
   withdraw the advertisement and unplug the vif. *)

let test_shutdown_withdraws_advertisement () =
  Trace.Metrics.reset ();
  let w = create () in
  let h, _srv = boot_web w ~ip:"10.0.0.53" echo_handler in
  let advertised () =
    List.exists (fun (n, _, _) -> n = "web-server." ^ string_of_int (Handle.domain h).Xensim.Domain.id)
      (Netsim.Bridge.services w.bridge)
  in
  check_bool "advertised while running" true (advertised ());
  let domains_before = Xensim.Hypervisor.domain_count w.hv in
  run w (Handle.shutdown h);
  check_bool "withdrawn after shutdown" false (advertised ());
  check_int "domain destroyed" (domains_before - 1) (Xensim.Hypervisor.domain_count w.hv);
  check_bool "orderly exit code" true
    ((Handle.domain h).Xensim.Domain.state = Xensim.Domain.Shutdown 0);
  (* the vif is gone: a probe to the dead appliance times out instead of
     connecting *)
  let client = host w ~account_cpu:false ~name:"probe" ~ip:"10.0.0.9" () in
  let got_through =
    run w
      (P.catch
         (fun () ->
           P.with_timeout w.sim (ms 500) (fun () ->
               Core.Apps.Net.Http_client.get_once
                 (Netstack.Stack.tcp client.stack)
                 ~dst:(Netstack.Ipaddr.of_string "10.0.0.53") ~port:80 "/x")
           >>= fun _ -> P.return true)
         (fun _ -> P.return false))
  in
  check_bool "dead appliance unreachable" false got_through

let test_handle_lifecycle () =
  Trace.Metrics.reset ();
  let w = create () in
  let h, _srv = boot_web w ~ip:"10.0.0.53" echo_handler in
  check_bool "running" true (Handle.status h = Handle.Running);
  check_string "name" "web-server" (Handle.name h);
  (* drain with idle servers completes immediately and is idempotent *)
  run w (Handle.drain h);
  check_bool "stopped after drain" true (Handle.status h = Handle.Stopped);
  run w (Handle.drain h);
  run w (Handle.shutdown h);
  check_bool "still stopped" true (Handle.status h = Handle.Stopped);
  (* the stopped promise has resolved (appliance mains wait on it) *)
  run w (Handle.stopped h)

(* ---- zero-loss drain ----

   A scripted request is mid-service when the orchestrator drains the
   shard: it must still receive its response, byte-identical to an
   undisturbed run. *)

let test_drain_loses_no_inflight_request () =
  Trace.Metrics.reset ();
  let response_of run_drain =
    let w = create () in
    (* 20 ms of vCPU per request: a wide window to land the drain in *)
    let h, srv = boot_web w ~cost_ns:20_000_000 ~ip:"10.0.0.53" echo_handler in
    let client = host w ~account_cpu:false ~name:"load" ~ip:"10.0.0.9" () in
    let tcp = Netstack.Stack.tcp client.stack in
    let resp = ref None in
    P.async (fun () ->
        Core.Apps.Net.Http_client.connect tcp ~dst:(Netstack.Ipaddr.of_string "10.0.0.53") ~port:80
        >>= fun conn ->
        Core.Apps.Net.Http_client.get conn "/keep" >>= fun r ->
        resp := Some r;
        P.return ());
    if run_drain then
      P.async (fun () ->
          (* request sent and parsing/serving under way: now retire the shard *)
          P.sleep w.sim (ms 10) >>= fun () -> Handle.drain h);
    Engine.Sim.run ~until:(sec 2) w.sim;
    if run_drain then begin
      check_bool "drained to stopped" true (Handle.status h = Handle.Stopped);
      check_int "no connection left on the server" 0 (Core.Apps.Net.Http.active_connections srv)
    end;
    match !resp with
    | Some r -> r
    | None -> Alcotest.fail "request lost"
  in
  let undisturbed = response_of false in
  let drained = response_of true in
  check_int "status identical" undisturbed.Uhttp.Http_wire.status drained.Uhttp.Http_wire.status;
  check_string "body identical" undisturbed.Uhttp.Http_wire.resp_body drained.Uhttp.Http_wire.resp_body;
  check_bool "headers identical" true
    (undisturbed.Uhttp.Http_wire.resp_headers = drained.Uhttp.Http_wire.resp_headers)

(* ---- the balancer ---- *)

let test_lb_spreads_and_survives_backend_death () =
  Trace.Metrics.reset ();
  let w = create () in
  let h1, _ = boot_web w ~name:"web.0" ~cost_ns:1_000_000 ~ip:"10.0.0.11" echo_handler in
  let h2, _ = boot_web w ~name:"web.1" ~cost_ns:1_000_000 ~ip:"10.0.0.12" echo_handler in
  let lb_host = host w ~account_cpu:false ~name:"lb" ~ip:"10.0.0.2" () in
  let lb =
    LB.create w.sim ~check_interval_ns:(ms 50)
      ~tcp:(Netstack.Stack.tcp lb_host.stack) ~port:80 ()
  in
  LB.add_backend lb ~name:"web.0" ~addr:(Handle.address h1) ~port:80 ~health_port:9100;
  LB.add_backend lb ~name:"web.1" ~addr:(Handle.address h2) ~port:80 ~health_port:9100;
  let client = host w ~account_cpu:false ~name:"load" ~ip:"10.0.0.9" () in
  let tcp = Netstack.Stack.tcp client.stack in
  let get () =
    run w
      (P.catch
         (fun () ->
           P.with_timeout w.sim (ms 500) (fun () ->
               Core.Apps.Net.Http_client.get_once tcp ~dst:(Netstack.Ipaddr.of_string "10.0.0.2")
                 ~port:80 "/r")
           >>= fun r -> P.return (Some r))
         (fun _ -> P.return None))
  in
  let ok = ref 0 in
  for _ = 1 to 20 do
    match get () with
    | Some r when r.Uhttp.Http_wire.status = 200 -> incr ok
    | _ -> ()
  done;
  check_int "all forwarded" 20 !ok;
  let totals =
    List.map
      (fun b -> LB.(b.b_total))
      (LB.backends lb)
  in
  check_bool "both backends served traffic" true (List.for_all (fun t -> t > 0) totals);
  (* kill one backend; health checks must take it out of rotation *)
  run w (Handle.shutdown h1);
  Engine.Sim.run ~until:(Engine.Sim.now w.sim + ms 400) w.sim;
  check_int "one healthy backend left" 1 (LB.healthy_count lb);
  let ok2 = ref 0 in
  for _ = 1 to 10 do
    match get () with
    | Some r when r.Uhttp.Http_wire.status = 200 -> incr ok2
    | _ -> ()
  done;
  check_int "traffic keeps flowing" 10 !ok2

let test_lb_hash_affinity () =
  Trace.Metrics.reset ();
  let w = create () in
  let h1, _ = boot_web w ~name:"web.0" ~cost_ns:1_000_000 ~ip:"10.0.0.11" echo_handler in
  let h2, _ = boot_web w ~name:"web.1" ~cost_ns:1_000_000 ~ip:"10.0.0.12" echo_handler in
  ignore h2;
  let lb_host = host w ~account_cpu:false ~name:"lb" ~ip:"10.0.0.2" () in
  let lb =
    LB.create w.sim ~policy:Lb.Balancer.Hash ~check_interval_ns:(ms 50)
      ~tcp:(Netstack.Stack.tcp lb_host.stack) ~port:80 ()
  in
  LB.add_backend lb ~name:"web.0" ~addr:(Handle.address h1) ~port:80 ~health_port:9100;
  LB.add_backend lb ~name:"web.1" ~addr:(Handle.address h2) ~port:80 ~health_port:9100;
  (* one client, persistent connection: every request on it must land on
     one backend (the hash key is the client endpoint) *)
  let client = host w ~account_cpu:false ~name:"load" ~ip:"10.0.0.9" () in
  let tcp = Netstack.Stack.tcp client.stack in
  let n =
    run w
      (Core.Apps.Net.Http_client.connect tcp ~dst:(Netstack.Ipaddr.of_string "10.0.0.2") ~port:80
       >>= fun conn ->
       let rec go i acc =
         if i = 0 then P.return acc
         else
           Core.Apps.Net.Http_client.get conn "/a" >>= fun r ->
           go (i - 1) (acc + if r.Uhttp.Http_wire.status = 200 then 1 else 0)
       in
       go 8 0)
  in
  check_int "all answered over one connection" 8 n;
  let totals =
    List.map (fun b -> LB.(b.b_total)) (LB.backends lb)
  in
  (* one TCP connection -> one backend carried everything *)
  check_bool "affinity: a single backend carried the connection" true
    (List.exists (fun t -> t = 1) totals && List.fold_left ( + ) 0 totals = 1)

(* The hash policy keys on the client endpoint's value (address as its
   32-bit int, and port), so the backend each of these fixed clients
   lands on is pinned: it moves only if the key or the hash does. *)
let test_lb_hash_pinned () =
  Trace.Metrics.reset ();
  let w = create () in
  let h1, _ = boot_web w ~name:"web.0" ~cost_ns:1_000_000 ~ip:"10.0.0.11" echo_handler in
  let h2, _ = boot_web w ~name:"web.1" ~cost_ns:1_000_000 ~ip:"10.0.0.12" echo_handler in
  let lb_host = host w ~account_cpu:false ~name:"lb" ~ip:"10.0.0.2" () in
  let lb =
    LB.create w.sim ~policy:Lb.Balancer.Hash ~check_interval_ns:(ms 50)
      ~tcp:(Netstack.Stack.tcp lb_host.stack) ~port:80 ()
  in
  LB.add_backend lb ~name:"web.0" ~addr:(Handle.address h1) ~port:80 ~health_port:9100;
  LB.add_backend lb ~name:"web.1" ~addr:(Handle.address h2) ~port:80 ~health_port:9100;
  let totals () = List.map (fun b -> LB.(b.b_name, b.b_total)) (LB.backends lb) in
  let chosen ip =
    let client = host w ~account_cpu:false ~name:("client-" ^ ip) ~ip () in
    let before = totals () in
    let r =
      run w
        (Core.Apps.Net.Http_client.connect (Netstack.Stack.tcp client.stack)
           ~dst:(Netstack.Ipaddr.of_string "10.0.0.2") ~port:80
         >>= fun conn -> Core.Apps.Net.Http_client.get conn "/a")
    in
    check_int "answered" 200 r.Uhttp.Http_wire.status;
    match List.filter (fun (n, t) -> List.assoc n before <> t) (totals ()) with
    | [ (name, _) ] -> name
    | _ -> Alcotest.fail "one connection goes to exactly one backend"
  in
  Alcotest.(check (list string))
    "backend per client" [ "web.0"; "web.1"; "web.0"; "web.1" ]
    (List.map chosen [ "10.0.0.21"; "10.0.0.22"; "10.0.0.23"; "10.0.0.24" ])

(* ---- the splice ----

   [read] returns a chunk that is valid only until the next read, and a
   [write] queues its buffer until the peer acknowledges it, so the
   balancer must copy what it reads before writing it on. 400 000 bytes
   spliced client -> balancer -> backend arrive intact, over a clean and
   a lossy balancer link, on three seeds. *)
let test_lb_splice_intact () =
  let module Tcp = Netstack.Tcp in
  let len = 400_000 in
  let data = pattern len in
  List.iter
    (fun (seed, loss) ->
      let label = Printf.sprintf "seed %d, loss %.2f" seed loss in
      let w = create ~seed () in
      let backend = host w ~name:"backend" ~ip:"10.0.0.11" () in
      let lb_host = host w ~name:"lb" ~ip:"10.0.0.2" () in
      let client = host w ~name:"client" ~ip:"10.0.0.9" () in
      if loss > 0.0 then Netsim.Bridge.set_loss w.bridge lb_host.nic loss;
      (* no health round falls inside the transfer *)
      let lb =
        LB.create w.sim ~check_interval_ns:(sec 600) ~tcp:(Netstack.Stack.tcp lb_host.stack)
          ~port:80 ()
      in
      LB.add_backend lb ~name:"sink" ~addr:(Netstack.Stack.address backend.stack) ~port:80
        ~health_port:9100;
      let got = Buffer.create len in
      let eof, eof_u = P.wait () in
      Tcp.listen (Netstack.Stack.tcp backend.stack) ~port:80 (fun flow ->
          let rec drain () =
            Tcp.read flow >>= function
            | None ->
              P.wakeup eof_u ();
              Tcp.close flow
            | Some c ->
              Buffer.add_string got (Bytestruct.to_string c);
              drain ()
          in
          drain ());
      let rec send flow off =
        if off >= len then Tcp.close flow
        else
          let n = min 8192 (len - off) in
          Tcp.write flow (bs (String.sub data off n)) >>= fun () -> send flow (off + n)
      in
      run w
        ( Tcp.connect (Netstack.Stack.tcp client.stack) ~dst:(Netstack.Stack.address lb_host.stack)
            ~dst_port:80
        >>= fun flow -> send flow 0 );
      run w eof;
      let got = Buffer.contents got in
      check_int (label ^ ": length") len (String.length got);
      let first_bad =
        let rec go i = if i >= len || got.[i] <> data.[i] then i else go (i + 1) in
        go 0
      in
      check_int (label ^ ": first corrupted offset") len first_bad)
    [ (1, 0.0); (2, 0.0); (3, 0.0); (1, 0.02); (2, 0.02); (3, 0.02) ]

(* ---- Boot_spec.clone ---- *)

let test_boot_spec_clone () =
  let w = create () in
  let template =
    Core.Boot_spec.make ~backend_dom:w.dom0 ~bridge:w.bridge
      ~config:(Core.Appliance.web_server ())
      ()
  in
  let a = Core.Boot_spec.clone template ~name:"web.7" () in
  let b = Core.Boot_spec.clone template ~name:"web.7" () in
  let c = Core.Boot_spec.clone template ~name:"web.8" () in
  check_string "renamed" "web.7" a.Core.Boot_spec.config.Core.Config.app_name;
  check_int "deterministic reseed" a.Core.Boot_spec.config.Core.Config.aslr_seed
    b.Core.Boot_spec.config.Core.Config.aslr_seed;
  check_bool "distinct names, distinct layouts" true
    (a.Core.Boot_spec.config.Core.Config.aslr_seed
    <> c.Core.Boot_spec.config.Core.Config.aslr_seed);
  check_bool "template untouched" true
    ((Core.Appliance.web_server ()).Core.Config.app_name
    = template.Core.Boot_spec.config.Core.Config.app_name);
  let ip = static_ip "10.0.0.77" in
  let d = Core.Boot_spec.clone template ~name:"web.9" ~ip () in
  check_bool "ip override" true (d.Core.Boot_spec.ip = Some ip)

(* ---- windowed percentiles ---- *)

let test_window_forgets_old_samples () =
  let sim = Engine.Sim.create ~seed:1 () in
  let win = Trace.Hist.Window.create ~window_ns:(ms 100) in
  let record v = Trace.Hist.Window.record win ~now:(Engine.Sim.now sim) v in
  let p99 () = Trace.Hist.Window.percentile win ~now:(Engine.Sim.now sim) 99.0 in
  (* within Hist's quantization (< 1/128 relative) of the sample *)
  let near v = Float.abs (p99 () -. float_of_int v) <= float_of_int v /. 128.0 in
  record 1_000_000;
  record 9_000_000;
  check_bool "p99 sees the spike" true (near 9_000_000);
  (* age the samples out: the window must recover (the cumulative summary
     never does — that is the point of the window) *)
  Engine.Sim.run ~until:(ms 500) sim;
  check_bool "window empties" true (p99 () = 0.0);
  record 2_000_000;
  check_bool "fresh samples count again" true (near 2_000_000)

(* ---- the closed loop, end to end ---- *)

let small_params =
  {
    Fleet.defaults with
    Fleet.base_rps = 4.0;
    peak_rps = 40.0;
    warm_ns = sec 2;
    ramp_up_ns = sec 6;
    hold_ns = sec 4;
    ramp_down_ns = sec 6;
    tail_ns = sec 12;
    think_ns = sec 100;
    max_shards = 8;
    target_rps_per_shard = 10.0;
  }

let test_fleet_scales_out_and_in () =
  let o = Fleet.run small_params in
  check_bool "at least one scale-out" true (o.Fleet.o_scale_outs >= 1);
  check_bool "at least one scale-in" true (o.Fleet.o_scale_ins >= 1);
  check_int "no request lost"
    0
    (o.Fleet.o_errors + o.Fleet.o_timeouts + o.Fleet.o_refused);
  check_int "every request answered" o.Fleet.o_issued o.Fleet.o_ok;
  check_bool "tail latency held" true (o.Fleet.o_hold_p99_ns < float_of_int (ms 50));
  (* retired shards really are gone: handles stopped, domain table holds
     only dom0 + lb + monitor + clients + live shards *)
  let stopped, running =
    List.partition (fun (_, h) -> Handle.status h = Handle.Stopped) o.Fleet.o_shard_handles
  in
  check_int "live handles match fleet size" o.Fleet.o_final_shards (List.length running);
  check_bool "every retired shard exited cleanly" true
    (List.for_all
       (fun (_, h) -> (Handle.domain h).Xensim.Domain.state = Xensim.Domain.Shutdown 0)
       stopped);
  check_int "domain table" (4 + o.Fleet.o_final_shards) o.Fleet.o_domains_left

let test_fleet_deterministic_under_seed () =
  let a = Fleet.run small_params in
  let b = Fleet.run small_params in
  check_int "same arrivals" a.Fleet.o_issued b.Fleet.o_issued;
  check_int "same completions" a.Fleet.o_ok b.Fleet.o_ok;
  let sig_of (o : Fleet.outcome) =
    List.map
      (fun (ev : Fleet.Orch.event) ->
        ( ev.Fleet.Orch.ev_time_ns,
          ev.Fleet.Orch.ev_shard,
          ev.Fleet.Orch.ev_action = Fleet.Orch.Scale_out ))
      o.Fleet.o_events
  in
  check_bool "identical scale-event schedule" true (sig_of a = sig_of b)

(* A run borrows the metrics plane and hands it back: off and empty, so
   no read callback pins the finished fleet's world. *)
let test_fleet_releases_metrics_plane () =
  ignore (Fleet.run small_params);
  check_bool "metrics plane off again" false (Trace.Metrics.enabled ());
  check_int "no registrations left" 0 (List.length (Trace.Metrics.snapshot ()))

let () =
  Alcotest.run "fleet"
    [
      ( "lifecycle",
        [
          Alcotest.test_case "shutdown withdraws advertisement and vif" `Quick
            test_shutdown_withdraws_advertisement;
          Alcotest.test_case "handle drain/shutdown idempotent" `Quick test_handle_lifecycle;
          Alcotest.test_case "drain loses no in-flight request" `Quick
            test_drain_loses_no_inflight_request;
          Alcotest.test_case "Boot_spec.clone stamps out replicas" `Quick test_boot_spec_clone;
        ] );
      ( "balancer",
        [
          Alcotest.test_case "least-conns spreads, health checks evict the dead" `Quick
            test_lb_spreads_and_survives_backend_death;
          Alcotest.test_case "hash policy pins a connection" `Quick test_lb_hash_affinity;
          Alcotest.test_case "hash policy keys on the endpoint's value" `Quick test_lb_hash_pinned;
          Alcotest.test_case "splice delivers every byte intact" `Quick test_lb_splice_intact;
          Alcotest.test_case "latency window forgets old samples" `Quick
            test_window_forgets_old_samples;
        ] );
      ( "autoscaler",
        [
          Alcotest.test_case "scales out and back in, zero loss" `Quick
            test_fleet_scales_out_and_in;
          Alcotest.test_case "deterministic under a pinned seed" `Quick
            test_fleet_deterministic_under_seed;
          Alcotest.test_case "run leaves the metrics plane off and empty" `Quick
            test_fleet_releases_metrics_plane;
        ] );
    ]
