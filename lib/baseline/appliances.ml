(* Calibration (§4.4):
   - Figure 12: Mirage scales linearly to ~80 sessions/s (800 req/s) on one
     vCPU before going CPU-bound -> ~1.2 ms of appliance work per request;
     the nginx+fastCGI+web.py chain saturates at ~20 sessions/s (200 req/s)
     -> ~4.7 ms per request (Python handler + two IPC hops), and beyond its
     worker/fd pool it errors rather than queueing.
   - Figure 13: Apache2 serving a static page costs ~2.3 ms per connection
     (accept + worker dispatch + sendfile-less copy path with offload off);
     the Mirage static path ~1.55 ms. With the 15% per-extra-vCPU
     contention tax this lands the four bars in the paper's order. *)
let webpy_request_cost_ns = 4_700_000
let apache_request_cost_ns = 2_300_000
let mirage_request_cost_ns = 1_200_000
let mirage_static_cost_ns = 1_550_000

module Make (T : Device_sig.TCP) = struct
  module S = Uhttp.Server.Make (T)

  type t = {
    server : S.t;
    mutable active : int;
    max_concurrent : int;
    mutable rejected : int;
  }

  (* Public listener with the fd/worker limit. *)
  let listen_gated t tcp ~port =
    T.listen tcp ~port (fun flow ->
        if t.active >= t.max_concurrent then begin
          t.rejected <- t.rejected + 1;
          T.abort flow;
          Mthread.Promise.return ()
        end
        else begin
          t.active <- t.active + 1;
          Mthread.Promise.finalize
            (fun () -> S.handle_flow t.server flow)
            (fun () ->
              t.active <- t.active - 1;
              Mthread.Promise.return ())
        end)

  let nginx_webpy sim ~dom ~tcp ~port handler =
    let wrapped req =
      (* fastCGI hop: two context switches and a pipe copy before Python
         runs; the interpreter cost is the dominant term and is charged by
         the server's per-request cost below. *)
      handler req
    in
    let server = S.create_detached sim ~dom ~per_request_cost_ns:webpy_request_cost_ns wrapped in
    let t = { server; active = 0; max_concurrent = 64; rejected = 0 } in
    listen_gated t tcp ~port;
    t

  let apache_static sim ~dom ~tcp ~port =
    let page = String.make 4096 'x' in
    let handler _req =
      Mthread.Promise.return
        (Uhttp.Http_wire.response ~headers:[ ("Content-Type", "text/html") ] ~status:200 page)
    in
    let server = S.create_detached sim ~dom ~per_request_cost_ns:apache_request_cost_ns handler in
    (* mpm-worker: pool sized to vCPUs x 32 threads. *)
    let max_concurrent = 32 * Xensim.Domain.vcpus dom in
    let t = { server; active = 0; max_concurrent; rejected = 0 } in
    listen_gated t tcp ~port;
    t

  let requests_served t = S.requests_served t.server
  let connections_rejected t = t.rejected
end
