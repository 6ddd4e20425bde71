(* Figures 12 and 13: the web appliances of 4.4.

   Figure 12: the Twitter-like dynamic service — a Mirage appliance keeping
   its tweets in an in-memory Hashtbl vs. nginx+fastCGI+web.py on a Linux
   VM — reply rate vs. offered session rate (sessions are 9 GETs + 1 POST
   on one connection).

   Figure 13: static page serving — Apache2 on Linux in three vCPU
   configurations vs. six single-vCPU Mirage unikernels. *)

module P = Mthread.Promise
module H = Uhttp.Http_wire
module Appliances = Baseline.Appliances.Make (Netstack.Device.Tcp)

let twitter_router () =
  let tweets : (string, string list) Hashtbl.t = Hashtbl.create 64 in
  let router = Uhttp.Router.create () in
  Uhttp.Router.add router H.GET "/tweets/:user" (fun params _req ->
      let user = List.assoc "user" params in
      let msgs = match Hashtbl.find_opt tweets user with Some l -> l | None -> [] in
      let last100 = List.filteri (fun i _ -> i < 100) msgs in
      P.return (H.response ~status:200 (String.concat "\n" last100)));
  Uhttp.Router.add router H.POST "/tweet/:user" (fun params req ->
      let user = List.assoc "user" params in
      let existing = match Hashtbl.find_opt tweets user with Some l -> l | None -> [] in
      Hashtbl.replace tweets user (req.H.body :: existing);
      P.return (H.response ~status:201 "created"));
  router

let fig12_point ~appliance ~rate =
  let w = Util.make_world () in
  let client =
    Util.host w ~platform:Platform.linux_native ~account_cpu:false ~name:"httperf"
      ~ip:"10.0.0.9" ()
  in
  let counter = ref 0 in
  let sessions = max 20 (int_of_float (rate *. 2.0)) in
  let server_ip = Netstack.Ipaddr.of_string "10.0.0.80" in
  (match appliance with
  | `Mirage ->
    let server = Util.host w ~platform:Platform.xen_extent ~name:"mirage-web" ~ip:"10.0.0.80" () in
    ignore
      (Core.Apps.Net.Http.of_router w.Util.sim ~dom:server.Util.dom
         ~per_request_cost_ns:Baseline.Appliances.mirage_request_cost_ns
         ~tcp:(Netstack.Stack.tcp server.Util.stack) ~port:80 (twitter_router ()))
  | `Linux ->
    let server = Util.host w ~platform:Platform.linux_pv ~name:"nginx-webpy" ~ip:"10.0.0.80" () in
    let router = twitter_router () in
    ignore
      (Appliances.nginx_webpy w.Util.sim ~dom:server.Util.dom
         ~tcp:(Netstack.Stack.tcp server.Util.stack) ~port:80 (fun req ->
           match Uhttp.Router.dispatch router req.H.meth req.H.path with
           | Some h -> h req
           | None -> P.return (H.response ~status:404 "not found"))));
  let result =
    Util.run w
      (Util.Httperf.run w.Util.sim (Netstack.Stack.tcp client.Util.stack) ~dst:server_ip ~port:80
         ~rate ~sessions ~session_timeout_ns:(Engine.Sim.sec 10) ~counter
         ~session:(Util.Httperf.twitter_session ~user:"alice" ~counter) ())
  in
  result.Uhttp.Httperf.reply_rate

let fig12 () =
  Util.header "Figure 12: dynamic web appliance, reply rate vs session rate (replies/s)";
  Printf.printf "  %-16s %-14s %-14s\n" "sessions/s" "Mirage" "Linux PV";
  List.iter
    (fun rate ->
      let m = fig12_point ~appliance:`Mirage ~rate in
      let l = fig12_point ~appliance:`Linux ~rate in
      Util.emit ~figure:"fig12"
        ~metric:(Printf.sprintf "reply-rate/Mirage/%.0f-sess" rate)
        ~unit_:"replies/s" m;
      Util.emit ~figure:"fig12"
        ~metric:(Printf.sprintf "reply-rate/Linux PV/%.0f-sess" rate)
        ~unit_:"replies/s" l;
      Printf.printf "  %-16.0f %-14.0f %-14.0f\n" rate m l)
    [ 10.; 20.; 30.; 40.; 60.; 80.; 100. ];
  Printf.printf
    "  (paper shape: Mirage linear to ~80 sessions/s (~800 replies/s); Linux saturates ~20)\n"

(* ---- Figure 13 ---- *)

let fig13_offered_rate = 6000.0
let fig13_sessions = 3000

let fig13_config ~label ~servers =
  (* [servers] = list of (platform, vcpus, make_server). Load is spread
     round-robin across the server IPs, one static GET per connection. *)
  let w = Util.make_world () in
  let client =
    Util.host w ~platform:Platform.linux_native ~account_cpu:false
      ~bandwidth_bps:10_000_000_000 ~name:"load" ~ip:"10.0.0.9" ()
  in
  let ips =
    List.mapi
      (fun i (platform, vcpus, kind) ->
        let ip = Printf.sprintf "10.0.0.%d" (80 + i) in
        let server = Util.host w ~platform ~vcpus ~name:(label ^ string_of_int i) ~ip () in
        (match kind with
        | `Apache ->
          ignore
            (Appliances.apache_static w.Util.sim ~dom:server.Util.dom
               ~tcp:(Netstack.Stack.tcp server.Util.stack) ~port:80)
        | `Mirage ->
          ignore
            (Core.Apps.Net.Http.create w.Util.sim ~dom:server.Util.dom
               ~per_request_cost_ns:Baseline.Appliances.mirage_static_cost_ns
               ~tcp:(Netstack.Stack.tcp server.Util.stack) ~port:80 (fun _req ->
                 P.return (H.response ~status:200 (String.make 4096 'x')))));
        Netstack.Stack.address server.Util.stack)
      servers
  in
  let ips = Array.of_list ips in
  (* One httperf instance per server IP, each with its own reply counter
     (they run concurrently). *)
  let t0 = Engine.Sim.now w.Util.sim in
  let results =
    List.map
      (fun ip ->
        let counter = ref 0 in
        Util.Httperf.run w.Util.sim (Netstack.Stack.tcp client.Util.stack) ~dst:ip ~port:80
          ~rate:(fig13_offered_rate /. float_of_int (Array.length ips))
          ~sessions:(fig13_sessions / Array.length ips)
          ~session_timeout_ns:(Engine.Sim.sec 5) ~counter
          ~session:(Util.Httperf.static_session ~path:"/index.html" ~counter) ())
      (Array.to_list ips)
  in
  let all = Util.run w (P.all results) in
  let elapsed = Engine.Sim.to_sec (Engine.Sim.now w.Util.sim - t0) in
  let replies = List.fold_left (fun acc r -> acc + r.Uhttp.Httperf.replies) 0 all in
  float_of_int replies /. elapsed

let fig13 () =
  Util.header "Figure 13: static page serving (connections/s)";
  let apache n vcpus = List.init n (fun _ -> (Platform.linux_pv, vcpus, `Apache)) in
  let mirage n = List.init n (fun _ -> (Platform.xen_extent, 1, `Mirage)) in
  let configs =
    [
      ("Linux (1 host, 6 vcpus)", apache 1 6);
      ("Linux (2 hosts, 3 vcpus)", apache 2 3);
      ("Linux (6 hosts, 1 vcpu)", apache 6 1);
      ("Mirage (6 unikernels)", mirage 6);
    ]
  in
  let results = List.map (fun (label, servers) -> (label, fig13_config ~label ~servers)) configs in
  let max_v = List.fold_left (fun m (_, v) -> max m v) 0.0 results in
  List.iter
    (fun (label, v) ->
      Util.emit ~figure:"fig13" ~metric:("static/" ^ label) ~unit_:"conns/s" v;
      Util.bar label v "conns/s" max_v)
    results;
  Printf.printf
    "  (paper shape: scaling out beats scaling up for Apache; Mirage exceeds all Apache configs)\n"

let run () =
  fig12 ();
  fig13 ()
