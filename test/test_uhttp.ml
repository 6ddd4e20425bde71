open Testlib
module P = Mthread.Promise
open P.Infix
module H = Uhttp.Http_wire
module Httperf = Uhttp.Httperf.Make (Netstack.Device.Tcp)

let is_sub needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

(* A loopback flow pair via the full network stack for reader tests. *)
let http_world () =
  let w = create () in
  let server = host w ~platform:Platform.xen_extent ~name:"www" ~ip:"10.0.0.80" () in
  let client = host w ~platform:Platform.linux_pv ~name:"curl" ~ip:"10.0.0.2" () in
  (w, server, client)

(* ---- wire ---- *)

let test_render_request () =
  let req =
    { H.meth = H.POST; path = "/tweet/alice"; version = "HTTP/1.1";
      headers = [ ("Host", "example.org") ]; body = "status=hi" }
  in
  let rendered = H.render_request req in
  check_bool "request line" true (is_sub "POST /tweet/alice HTTP/1.1\r\n" rendered);
  check_bool "content-length added" true (is_sub "Content-Length: 9\r\n" rendered);
  check_bool "body last" true (is_sub "\r\n\r\nstatus=hi" rendered)

let test_render_response () =
  let resp = H.response ~headers:[ ("Content-Type", "text/plain") ] ~status:404 "nope" in
  let rendered = H.render_response resp in
  check_bool "status line" true (is_sub "HTTP/1.1 404 Not Found\r\n" rendered);
  check_bool "type" true (is_sub "Content-Type: text/plain\r\n" rendered);
  check_bool "length" true (is_sub "Content-Length: 4\r\n" rendered)

let test_keep_alive_semantics () =
  check_bool "default keep-alive" true (H.keep_alive []);
  check_bool "explicit close" false (H.keep_alive [ ("connection", "close") ]);
  check_bool "explicit keep" true (H.keep_alive [ ("connection", "keep-alive") ])

let test_header_lookup () =
  let headers = [ ("host", "a"); ("content-length", "3") ] in
  check_bool "case-insensitive name" true (H.header headers "Content-Length" = Some "3");
  check_bool "missing" true (H.header headers "cookie" = None)

(* ---- router ---- *)

let test_router () =
  let r = Uhttp.Router.create () in
  Uhttp.Router.add r H.GET "/tweets/:user" (fun params -> `Tweets (List.assoc "user" params));
  Uhttp.Router.add r H.POST "/tweet/:user" (fun params -> `Post (List.assoc "user" params));
  Uhttp.Router.add r H.GET "/static/index.html" (fun _ -> `Static);
  check_bool "param capture" true (Uhttp.Router.dispatch r H.GET "/tweets/bob" = Some (`Tweets "bob"));
  check_bool "method distinguishes" true
    (Uhttp.Router.dispatch r H.POST "/tweet/eve" = Some (`Post "eve"));
  check_bool "exact route" true (Uhttp.Router.dispatch r H.GET "/static/index.html" = Some `Static);
  check_bool "no match" true (Uhttp.Router.dispatch r H.GET "/nope" = None);
  check_bool "wrong method" true (Uhttp.Router.dispatch r H.DELETE "/tweets/bob" = None);
  check_bool "query string stripped" true
    (Uhttp.Router.dispatch r H.GET "/tweets/bob?since=1" = Some (`Tweets "bob"))

(* ---- server + client over the stack ---- *)

let start_server ?per_request_cost_ns w (server : host) =
  let router = Uhttp.Router.create () in
  let tweets : (string, string list) Hashtbl.t = Hashtbl.create 8 in
  Uhttp.Router.add router H.GET "/tweets/:user" (fun params _req ->
      let user = List.assoc "user" params in
      let msgs = match Hashtbl.find_opt tweets user with Some l -> l | None -> [] in
      P.return (H.response ~status:200 (String.concat "\n" msgs)));
  Uhttp.Router.add router H.POST "/tweet/:user" (fun params req ->
      let user = List.assoc "user" params in
      let existing = match Hashtbl.find_opt tweets user with Some l -> l | None -> [] in
      Hashtbl.replace tweets user (req.H.body :: existing);
      P.return (H.response ~status:201 "created"));
  Uhttp.Router.add router H.GET "/index.html" (fun _ _ ->
      P.return (H.response ~status:200 "<html>hi</html>"));
  Core.Apps.Net.Http.of_router w.sim ~dom:server.dom ?per_request_cost_ns
    ~tcp:(Netstack.Stack.tcp server.stack) ~port:80 router

let test_get_post_cycle () =
  let w, server, client = http_world () in
  let srv = start_server w server in
  let session =
    Core.Apps.Net.Http_client.connect (Netstack.Stack.tcp client.stack)
      ~dst:(Netstack.Stack.address server.stack) ~port:80
    >>= fun c ->
    Core.Apps.Net.Http_client.get c "/tweets/alice" >>= fun empty ->
    Core.Apps.Net.Http_client.post c "/tweet/alice" ~body:"first!" >>= fun posted ->
    Core.Apps.Net.Http_client.get c "/tweets/alice" >>= fun full ->
    Core.Apps.Net.Http_client.close c >>= fun () -> P.return (empty, posted, full)
  in
  let empty, posted, full = run w session in
  check_int "empty timeline" 200 empty.H.status;
  check_string "no tweets yet" "" empty.H.resp_body;
  check_int "created" 201 posted.H.status;
  check_string "timeline has tweet" "first!" full.H.resp_body;
  check_int "three requests on one connection" 3 (Core.Apps.Net.Http.requests_served srv);
  check_int "one connection" 1 (Core.Apps.Net.Http.connections_accepted srv)

let test_404 () =
  let w, server, client = http_world () in
  ignore (start_server w server);
  let resp =
    run w
      (Core.Apps.Net.Http_client.get_once (Netstack.Stack.tcp client.stack)
         ~dst:(Netstack.Stack.address server.stack) ~port:80 "/missing")
  in
  check_int "404" 404 resp.H.status

let test_connection_close_honoured () =
  let w, server, client = http_world () in
  ignore (start_server w server);
  let session =
    Core.Apps.Net.Http_client.connect (Netstack.Stack.tcp client.stack)
      ~dst:(Netstack.Stack.address server.stack) ~port:80
    >>= fun c ->
    Core.Apps.Net.Http_client.request c ~headers:[ ("Connection", "close") ] ~meth:H.GET ~path:"/index.html" ()
    >>= fun resp ->
    (* server closes; next read must be EOF *)
    P.catch
      (fun () -> Core.Apps.Net.Http_client.get c "/index.html" >|= fun _ -> `Second_worked)
      (fun _ -> P.return `Closed)
    >>= fun second -> P.return (resp, second)
  in
  let resp, second = run w session in
  check_int "first ok" 200 resp.H.status;
  check_bool "server closed after response" true (second = `Closed)

let test_bad_request () =
  let w, server, client = http_world () in
  let srv = start_server w server in
  let raw_session =
    Netstack.Tcp.connect (Netstack.Stack.tcp client.stack)
      ~dst:(Netstack.Stack.address server.stack) ~dst_port:80
    >>= fun flow ->
    Netstack.Tcp.write flow (bs "THIS IS NOT HTTP\r\n\r\n") >>= fun () ->
    let reader = Device_sig.Reader.create ~read:(fun () -> Netstack.Tcp.read flow) in
    H.read_response reader
  in
  (match run w raw_session with
  | Some resp -> check_int "400" 400 resp.H.status
  | None -> Alcotest.fail "expected a 400 response");
  check_int "bad request counted" 1 (Core.Apps.Net.Http.bad_requests srv)

let test_pipelined_requests_share_connection () =
  let w, server, client = http_world () in
  ignore (start_server w server);
  let session =
    Core.Apps.Net.Http_client.connect (Netstack.Stack.tcp client.stack)
      ~dst:(Netstack.Stack.address server.stack) ~port:80
    >>= fun c ->
    let rec go n acc =
      if n = 0 then P.return acc
      else Core.Apps.Net.Http_client.get c "/index.html" >>= fun r -> go (n - 1) (acc + if r.H.status = 200 then 1 else 0)
    in
    go 50 0 >>= fun ok -> Core.Apps.Net.Http_client.close c >|= fun () -> ok
  in
  check_int "50 keep-alive requests" 50 (run w session)

let test_large_body () =
  let w, server, client = http_world () in
  let router = Uhttp.Router.create () in
  Uhttp.Router.add router H.POST "/echo" (fun _ req -> P.return (H.response ~status:200 req.H.body));
  ignore
    (Core.Apps.Net.Http.of_router w.sim ~dom:server.dom ~tcp:(Netstack.Stack.tcp server.stack) ~port:80
       router);
  let body = pattern 100_000 in
  let resp =
    run w
      (Core.Apps.Net.Http_client.connect (Netstack.Stack.tcp client.stack)
         ~dst:(Netstack.Stack.address server.stack) ~port:80
       >>= fun c -> Core.Apps.Net.Http_client.post c "/echo" ~body)
  in
  check_bool "100 KB body echoed" true (resp.H.resp_body = body)

let test_head_and_empty_post () =
  let w, server, client = http_world () in
  let router = Uhttp.Router.create () in
  Uhttp.Router.add router H.HEAD "/probe" (fun _ _ -> P.return (H.response ~status:200 ""));
  Uhttp.Router.add router H.POST "/empty" (fun _ req ->
      P.return (H.response ~status:200 (string_of_int (String.length req.H.body))));
  ignore
    (Core.Apps.Net.Http.of_router w.sim ~dom:server.dom ~tcp:(Netstack.Stack.tcp server.stack) ~port:80
       router);
  let session =
    Core.Apps.Net.Http_client.connect (Netstack.Stack.tcp client.stack)
      ~dst:(Netstack.Stack.address server.stack) ~port:80
    >>= fun c ->
    Core.Apps.Net.Http_client.request c ~meth:H.HEAD ~path:"/probe" () >>= fun head ->
    Core.Apps.Net.Http_client.post c "/empty" ~body:"" >>= fun post ->
    Core.Apps.Net.Http_client.close c >>= fun () -> P.return (head, post)
  in
  let head, post = run w session in
  check_int "HEAD ok" 200 head.H.status;
  check_string "empty POST body length" "0" post.H.resp_body

let test_duplicate_headers_last_and_case () =
  let req =
    { H.meth = H.GET; path = "/"; version = "HTTP/1.1";
      headers = [ ("x-one", "1"); ("X-Two", "2") ]; body = "" }
  in
  let rendered = H.render_request req in
  check_bool "headers rendered" true (is_sub "x-one: 1\r\n" rendered && is_sub "X-Two: 2\r\n" rendered)

(* ---- httperf ---- *)

let test_httperf_run () =
  let w, server, client = http_world () in
  ignore (start_server w server);
  let counter = ref 0 in
  let result =
    run w
      (Httperf.run w.sim (Netstack.Stack.tcp client.stack)
         ~dst:(Netstack.Stack.address server.stack) ~port:80 ~rate:50.0 ~sessions:20 ~counter
         ~session:(Httperf.twitter_session ~user:"alice" ~counter) ())
  in
  check_int "all sessions completed" 20 result.Uhttp.Httperf.completed_sessions;
  check_int "10 replies per session" 200 result.Uhttp.Httperf.replies;
  check_int "no errors" 0 result.Uhttp.Httperf.errors;
  check_bool "reply rate positive" true (result.Uhttp.Httperf.reply_rate > 0.0)

let () =
  Alcotest.run "uhttp"
    [
      ( "wire",
        [
          Alcotest.test_case "render request" `Quick test_render_request;
          Alcotest.test_case "render response" `Quick test_render_response;
          Alcotest.test_case "keep-alive semantics" `Quick test_keep_alive_semantics;
          Alcotest.test_case "header lookup" `Quick test_header_lookup;
        ] );
      ("router", [ Alcotest.test_case "dispatch" `Quick test_router ]);
      ( "server",
        [
          Alcotest.test_case "get/post cycle" `Quick test_get_post_cycle;
          Alcotest.test_case "404" `Quick test_404;
          Alcotest.test_case "connection: close" `Quick test_connection_close_honoured;
          Alcotest.test_case "bad request" `Quick test_bad_request;
          Alcotest.test_case "keep-alive pipeline" `Quick test_pipelined_requests_share_connection;
          Alcotest.test_case "large body" `Quick test_large_body;
          Alcotest.test_case "HEAD and empty POST" `Quick test_head_and_empty_post;
          Alcotest.test_case "header rendering" `Quick test_duplicate_headers_last_and_case;
        ] );
      ("httperf", [ Alcotest.test_case "run" `Quick test_httperf_run ]);
    ]
