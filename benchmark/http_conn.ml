(* http_conn: an open loop of Poisson arrivals at 400 requests/s, about
   two thirds of one appliance's capacity (Figure 13 measured 3668
   conn/s across six unikernels). Every request opens a fresh connection
   to one Mirage uhttp appliance: SYN, GET, a 4 KiB reply, FIN. The
   client charges no vCPU. Chosen because it uses the same TCP layer as
   bulk_tcp differently: connection setup and teardown, timers and
   TIME_WAIT, socket tables, promise churn and HTTP parsing instead of
   byte streaming.

   A reply must have status 200 and the seeded 4096-byte body. Latency
   runs from when the request was due, so a stall also delays the
   requests queued behind it. *)

module P = Mthread.Promise
module Client = Core.Apps.Net.Http_client

let rate_per_s = 400.0
let body_len = 4096
let warmup_ns = Engine.Sim.sec 2
let measured = 15_000

let setup ~seed ~scale =
  let rng = Engine.Prng.create ~seed () in
  let w = World.create ~seed:(Engine.Prng.int rng 0x3fffffff) () in
  let body = String.init body_len (fun _ -> Char.chr (97 + Engine.Prng.int rng 26)) in
  let h, boot_ns =
    World.appliance w ~config:(Core.Appliance.web_server ()) ~ip:"10.0.0.80" ~main:(fun h ->
        ignore
          (Core.Apps.Net.Http.create w.World.sim ~dom:(World.Handle.domain h)
             ~per_request_cost_ns:Baseline.Appliances.mirage_static_cost_ns
             ~tcp:(Netstack.Stack.tcp (World.Handle.stack h))
             ~port:80
             (fun _req -> P.return (Uhttp.Http_wire.response ~status:200 body)));
        P.bind (World.Handle.stopped h) (fun () -> P.return 0))
  in
  let _, client =
    World.host w ~platform:Platform.linux_native ~account_cpu:false ~name:"httperf" ~ip:"10.0.0.9"
      ()
  in
  let tcp = Netstack.Stack.tcp client and dst = World.Handle.address h in
  let total = max 1 (int_of_float (float_of_int measured *. scale)) in
  let warm_end = World.now w + Workload.scaled scale warmup_ns in
  let issued = ref 0 and counted_issued = ref 0 and first_due = ref (-1) and last_done = ref 0 in
  let attempted = ref 0 and failed = ref 0 and bytes = ref 0 in
  let lat = Stats.Samples.create () in
  let finish ~counted ~due ok =
    if counted then begin
      incr attempted;
      last_done := World.now w;
      if ok then begin
        bytes := !bytes + body_len;
        Stats.Samples.add lat (World.now w - due)
      end
      else incr failed
    end
  in
  let request i ~due ~counted =
    let now () = World.now w in
    let root = Spans.start ~req:i ~now:due "http_request" in
    let sp = Spans.start ~parent:root ~req:i ~now:due "connect" in
    P.async (fun () ->
        P.catch
          (fun () ->
            P.bind (Client.connect tcp ~dst ~port:80) (fun conn ->
                Spans.finish sp ~now:(now ());
                let sp = Spans.start ~parent:root ~req:i ~now:(now ()) "request" in
                P.bind (Client.get conn "/") (fun resp ->
                    Spans.finish sp ~now:(now ());
                    finish ~counted ~due
                      (resp.Uhttp.Http_wire.status = 200
                      && String.equal resp.Uhttp.Http_wire.resp_body body);
                    let sp = Spans.start ~parent:root ~req:i ~now:(now ()) "close" in
                    P.bind (Client.close conn) (fun () ->
                        Spans.finish sp ~now:(now ());
                        Spans.finish root ~now:(now ());
                        P.return ()))))
          (fun _ ->
            finish ~counted ~due false;
            P.return ()))
  in
  (* The generator owns the schedule: each request is due at a seeded
     Poisson instant and starts exactly then, however far behind the
     appliance is. Requests due after the warm-up are measured; arrivals
     stop after the last of them. *)
  let gap () = int_of_float (Engine.Prng.exponential rng ~mean:(1e9 /. rate_per_s)) in
  let rec arrive due () =
    let counted = due >= warm_end in
    if counted then begin
      if !first_due < 0 then first_due := due;
      incr counted_issued
    end;
    request !issued ~due ~counted;
    incr issued;
    if !counted_issued < total then begin
      let next = due + gap () in
      ignore (Engine.Sim.at w.World.sim ~time:next (arrive next))
    end
  in
  let first = World.now w + gap () in
  ignore (Engine.Sim.at w.World.sim ~time:first (arrive first));
  let d = World.new_drive () in
  World.run_until w d warm_end;
  let measure d =
    (* a request still unanswered a minute past twice the schedule's
       length has failed *)
    let schedule_ns = int_of_float (float_of_int total *. 1e9 /. rate_per_s) in
    let late = ref false in
    ignore
      (Engine.Sim.at w.World.sim
         ~time:(warm_end + (2 * schedule_ns) + Engine.Sim.sec 60)
         (fun () -> late := true));
    World.step_until w d (fun () -> !attempted >= total || !late);
    {
      Workload.attempted = total;
      failed = !failed + (total - !attempted);
      bytes = !bytes;
      window_ns = !last_done - !first_due;
      latencies = lat;
      layer =
        [
          ("core.boot_p50_ms", Engine.Sim.to_ms boot_ns);
          ("core.boot_p99_ms", Engine.Sim.to_ms boot_ns);
        ];
    }
  in
  { Workload.world = w; server = World.Handle.domain h; measure }

let workload = { Workload.name = "http_conn"; setup }
