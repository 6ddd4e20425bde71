(* Open-loop client population driver.

   A closed-loop generator (wait for the response, then send again)
   self-throttles exactly when the system degrades — it cannot expose an
   overload. This driver is open-loop: arrivals follow a rate schedule
   regardless of completions, like a population of independent users
   behind think times. With think time Z and arrival rate r the modelled
   population is N = r * Z (Little's law): a 1000 rps peak with 100 s
   think time is 10^5 users; with 1000 s, 10^6. [population] reports it.

   The schedule is piecewise-linear over (offset_ns, rate_rps) points —
   a ramp is just two points. Arrivals are Poisson (exponential gaps
   from the engine's deterministic PRNG), so identical seeds replay the
   exact arrival sequence. Each arrival opens a connection through the
   front address, issues one GET, and records the end-to-end latency in
   both a cumulative histogram (reporting) and a one-second
   [Trace.Hist.Window] (control). *)

let ( >>= ) = Mthread.Promise.bind
let return = Mthread.Promise.return

(* Every arrival is [GET /] on port 80, abandoned after 2 s. *)
let port = 80
let path = "/"
let timeout_ns = 2_000_000_000

module Make (T : Device_sig.TCP) = struct
  module C = Uhttp.Client.Make (T)

  type t = {
    sim : Engine.Sim.t;
    tcp : T.t;
    dst : T.ipaddr;
    think_ns : int;
    prng : Engine.Prng.t;
    on_sample : latency_ns:int -> unit;
    latencies : Trace.Hist.t;
    window : Trace.Hist.Window.t;
    mutable peak_rate : float;
    mutable issued : int;
    mutable ok : int;
    mutable errors : int;  (* refused / reset / non-200 *)
    mutable timeouts : int;
    mutable in_flight : int;
    mutable peak_in_flight : int;
  }

  let create sim ~tcp ~dst ~think_ns ~on_sample ~prng =
    {
      sim;
      tcp;
      dst;
      think_ns;
      prng;
      on_sample;
      latencies = Trace.Hist.create ();
      window = Trace.Hist.Window.create ~window_ns:1_000_000_000;
      peak_rate = 0.0;
      issued = 0;
      ok = 0;
      errors = 0;
      timeouts = 0;
      in_flight = 0;
      peak_in_flight = 0;
    }

  let latencies t = t.latencies
  let window t = t.window
  let issued t = t.issued
  let ok t = t.ok
  let errors t = t.errors
  let timeouts t = t.timeouts
  let in_flight t = t.in_flight
  let peak_in_flight t = t.peak_in_flight

  (* Modelled user population at rate r (Little's law, N = r * Z). *)
  let population t ~rate = int_of_float (rate *. float_of_int t.think_ns /. 1e9)
  let peak_population t = population t ~rate:t.peak_rate

  (* Piecewise-linear rate over (offset_ns, rate_rps) points, sorted by
     offset; flat before the first and after the last. *)
  let rate_at schedule ~offset_ns =
    match schedule with
    | [] -> 0.0
    | (t0, r0) :: _ when offset_ns <= t0 -> r0
    | first :: rest ->
      let rec go (tp, rp) = function
        | [] -> rp
        | (tn, rn) :: rest ->
          if offset_ns <= tn then
            if tn = tp then rn
            else rp +. ((rn -. rp) *. float_of_int (offset_ns - tp) /. float_of_int (tn - tp))
          else go (tn, rn) rest
      in
      go first rest

  let one_request t =
    t.issued <- t.issued + 1;
    t.in_flight <- t.in_flight + 1;
    if t.in_flight > t.peak_in_flight then t.peak_in_flight <- t.in_flight;
    let started = Engine.Sim.now t.sim in
    Mthread.Promise.finalize
      (fun () ->
        Mthread.Promise.catch
          (fun () ->
            Mthread.Promise.with_timeout t.sim timeout_ns (fun () ->
                C.get_once t.tcp ~dst:t.dst ~port path)
            >>= fun resp ->
            let lat = Engine.Sim.now t.sim - started in
            if resp.Uhttp.Http_wire.status = 200 then begin
              t.ok <- t.ok + 1;
              Trace.Hist.record t.latencies lat;
              Trace.Hist.Window.record t.window ~now:(Engine.Sim.now t.sim) lat;
              t.on_sample ~latency_ns:lat
            end
            else t.errors <- t.errors + 1;
            return ())
          (fun exn ->
            (match exn with
            | Mthread.Promise.Timeout -> t.timeouts <- t.timeouts + 1
            | _ -> t.errors <- t.errors + 1);
            return ()))
      (fun () ->
        t.in_flight <- t.in_flight - 1;
        return ())

  (* Drive the schedule for [duration_ns]: exponential inter-arrival gaps
     at the instantaneous rate, each arrival served by an independent
     fibre (open loop: a slow fleet never slows the arrival clock). While
     the rate is zero, re-poll the schedule every 10 ms. *)
  let run t ~schedule ~duration_ns =
    let started = Engine.Sim.now t.sim in
    let rec loop () =
      let offset_ns = Engine.Sim.now t.sim - started in
      if offset_ns >= duration_ns then return ()
      else begin
        let r = rate_at schedule ~offset_ns in
        if r > t.peak_rate then t.peak_rate <- r;
        if r <= 0.0 then Mthread.Promise.sleep t.sim 10_000_000 >>= loop
        else begin
          Mthread.Promise.async (fun () -> one_request t);
          let gap = Engine.Prng.exponential t.prng ~mean:(1e9 /. r) in
          Mthread.Promise.sleep t.sim (max 1 (int_of_float gap)) >>= loop
        end
      end
    in
    loop ()
end
