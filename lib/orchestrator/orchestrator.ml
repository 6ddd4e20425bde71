(* The closed-loop autoscaler: the control plane the paper's elasticity
   argument implies but never writes down. Unikernels boot in
   milliseconds, so a fleet can track its offered load in real time —
   this module closes that loop. It watches the monitoring plane's
   signals (scraped request rates, windowed-p99 gauges, SLO alerts),
   decides how many shards the service should have, and boots or drains
   appliances to get there, keeping the load balancer's backend set and
   the monitor's target set in step.

   Two signals drive the decision:

   - Target tracking (proactive): desired = ceil(aggregate request rate
     / per-shard target rate), clamped to [min_shards, max_shards]. The
     per-shard target is set well under capacity so the fleet scales
     ahead of a ramp instead of after the queues build.

   - SLO alerts (reactive): while the [watch_rule] alert (on the
     windowed p99 gauge) is firing, the loop wants at least one more
     shard than it has, whatever the rate arithmetic says. This is the
     backstop for load the rate signal underestimates.

   Scale-out is immediate (bounded by [max_step] per evaluation and a
   cooldown); scale-in requires the surplus to persist for
   [scale_in_hold_ns] and then retires the newest shard via the drain
   path: the balancer stops sending it new connections, the appliance
   finishes requests in flight, and only then is the domain destroyed —
   zero requests lost.

   Like the monitor and balancer, a functor over the transport: the
   orchestrator is itself appliance code. *)

let ( >>= ) = Mthread.Promise.bind
let return = Mthread.Promise.return

(* The control loop's timing. It evaluates every 500 ms (two scrape
   rounds of the fleet's 250 ms monitor); after any scaling action it
   waits [cooldown_ns] before the next; it retires a shard only after
   the surplus has lasted [scale_in_hold_ns]; and it boots at most
   [max_step] shards per evaluation. *)
let interval_ns = 500_000_000
let cooldown_ns = 1_000_000_000
let scale_in_hold_ns = 5_000_000_000
let max_step = 2

(* The alert rule that forces a scale-out while it fires. *)
let watch_rule = "p99-latency"

module Make (T : Device_sig.TCP) = struct
  module M = Monitor.Make (T)
  module LB = Lb.Balancer.Make (T)

  (* What the orchestrator needs to know about a shard it manages; the
     scenario's [boot] callback builds one from [Appliance.start] (with
     [ep_drain = Handle.drain]), keeping this module independent of the
     boot machinery. *)
  type endpoint = {
    ep_name : string;
    ep_addr : T.ipaddr;
    ep_port : int;  (* service port, fronted by the balancer *)
    ep_metrics_port : int;  (* health checks and scrapes *)
    ep_drain : unit -> unit Mthread.Promise.t;
  }

  type action = Scale_out | Scale_in

  type event = {
    ev_time_ns : int;
    ev_action : action;
    ev_shard : string;
    ev_reason : string;
    ev_shards : int;  (* fleet size after the action *)
  }

  type t = {
    sim : Engine.Sim.t;
    dom : int;
    lb : LB.t;
    mon : M.t;
    boot : index:int -> endpoint Mthread.Promise.t;
    min_shards : int;
    max_shards : int;
    target_rps_per_shard : float;
    mutable shards : endpoint list;  (* newest first *)
    mutable next_index : int;
    mutable last_scale_ns : int;
    mutable low_since : int option;  (* when surplus capacity first seen *)
    mutable rounds : int;
    mutable scale_outs : int;
    mutable scale_ins : int;
    mutable cold_starts : int;
    mutable cold_booting : bool;  (* a cold-start boot is in flight *)
    mutable events : event list;  (* newest first; [events] reverses *)
  }

  let create sim ~dom ~lb ~mon ~boot ~min_shards ~max_shards ~target_rps_per_shard =
    (* 0 is legal: scale-to-zero fleets idle with no shards at all and
       boot on demand via [cold_start]. *)
    if min_shards < 0 then invalid_arg "Orchestrator.create: min_shards must be >= 0";
    if max_shards < min_shards then invalid_arg "Orchestrator.create: max_shards < min_shards";
    let t =
      {
        sim;
        dom;
        lb;
        mon;
        boot;
        min_shards;
        max_shards;
        target_rps_per_shard;
        shards = [];
        next_index = 0;
        last_scale_ns = min_int / 2;
        low_since = None;
        rounds = 0;
        scale_outs = 0;
        scale_ins = 0;
        cold_starts = 0;
        cold_booting = false;
        events = [];
      }
    in
    if Trace.Metrics.enabled () then begin
      let reg kind name read = Trace.Metrics.register_read ~dom ~kind name read in
      reg Trace.Metrics.Gauge "fleet_shards" (fun () -> List.length t.shards);
      reg Trace.Metrics.Counter "fleet_scale_outs" (fun () -> t.scale_outs);
      reg Trace.Metrics.Counter "fleet_scale_ins" (fun () -> t.scale_ins)
    end;
    t

  let shards t = List.rev t.shards
  let shard_count t = List.length t.shards
  let events t = List.rev t.events
  let scale_outs t = t.scale_outs
  let scale_ins t = t.scale_ins
  let cold_starts t = t.cold_starts
  let rounds t = t.rounds

  let emit_event t action shard reason =
    let ev =
      {
        ev_time_ns = Engine.Sim.now t.sim;
        ev_action = action;
        ev_shard = shard;
        ev_reason = reason;
        ev_shards = shard_count t;
      }
    in
    t.events <- ev :: t.events;
    if Trace.enabled () then
      Trace.emit ~dom:t.dom
        ~payload:
          [
            ("shard", Trace.String shard);
            ("reason", Trace.String reason);
            ("shards", Trace.Int ev.ev_shards);
          ]
        ~cat:(Trace.User "fleet")
        (match action with Scale_out -> "fleet.scale_out" | Scale_in -> "fleet.scale_in")

  (* ---- signals ---- *)

  (* Aggregate request rate across managed shards, from the monitor's
     scraped [http_requests] series (None until any shard has two
     samples — a cold control loop must not scale on no data). *)
  let total_rate t =
    List.fold_left
      (fun acc ep ->
        match M.find_target t.mon ep.ep_name with
        | None -> acc
        | Some tg -> (
          match Option.bind (M.series tg "http_requests") Monitor.Series.rate with
          | None -> acc
          | Some r -> Some (Option.value acc ~default:0.0 +. max 0.0 r)))
      None (shards t)

  (* Worst windowed p99 across the fleet (the [http_p99_window_ns] gauge
     each shard publishes from a [Trace.Hist.Window]); for event
     annotations. *)
  let worst_p99_ns t =
    List.fold_left
      (fun acc ep ->
        match M.find_target t.mon ep.ep_name with
        | None -> acc
        | Some tg -> (
          match Option.bind (M.series tg "http_p99_window_ns") Monitor.Series.last with
          | None -> acc
          | Some (_, v) -> max acc (int_of_float v)))
      0 (shards t)

  let alert_firing t =
    List.exists
      (fun a -> a.Monitor.al_rule = watch_rule && a.Monitor.al_resolved_ns = None)
      (M.alerts t.mon)

  (* ---- actuation ---- *)

  let register t ep =
    t.shards <- ep :: t.shards;
    LB.add_backend t.lb ~name:ep.ep_name ~addr:ep.ep_addr ~port:ep.ep_port
      ~health_port:ep.ep_metrics_port;
    M.add_target t.mon ~name:ep.ep_name ~addr:ep.ep_addr ~port:ep.ep_metrics_port

  let scale_out t ~reason =
    let index = t.next_index in
    t.next_index <- index + 1;
    t.boot ~index >>= fun ep ->
    register t ep;
    t.scale_outs <- t.scale_outs + 1;
    t.last_scale_ns <- Engine.Sim.now t.sim;
    emit_event t Scale_out ep.ep_name reason;
    return ()

  (* Retire the newest shard (LIFO keeps the long-lived base of the
     fleet stable): balancer stops offering it new connections, the
     appliance drains, then both planes forget it. *)
  let scale_in t ~reason =
    match t.shards with
    | [] -> return ()
    | ep :: rest ->
      t.shards <- rest;
      t.last_scale_ns <- Engine.Sim.now t.sim;
      LB.drain_backend t.lb ~name:ep.ep_name;
      ep.ep_drain () >>= fun () ->
      LB.remove_backend t.lb ~name:ep.ep_name;
      M.remove_target t.mon ~name:ep.ep_name;
      t.scale_ins <- t.scale_ins + 1;
      emit_event t Scale_in ep.ep_name reason;
      return ()

  (* Scale-to-zero cold start: the balancer just parked a flow with no
     backend to give ([Lb.Balancer]'s [on_demand] hook). Boot shard 0
     immediately, bypassing the control-loop interval and cooldown — a
     client is waiting on the result. One boot at a time; re-pokes from
     further held flows while it is in flight are absorbed, and the
     flows all flush when the one backend registers. *)
  let cold_start t =
    if (not t.cold_booting) && shard_count t = 0 && t.max_shards > 0 then begin
      t.cold_booting <- true;
      t.cold_starts <- t.cold_starts + 1;
      Mthread.Promise.async (fun () ->
          Mthread.Promise.finalize
            (fun () -> scale_out t ~reason:"cold-start")
            (fun () ->
              t.cold_booting <- false;
              return ()))
    end

  (* ---- the loop ---- *)

  (* How many shards the fleet should have right now, and why. *)
  let desired t =
    let current = shard_count t in
    let tracked =
      match total_rate t with
      | None -> current
      | Some rate -> int_of_float (ceil (rate /. t.target_rps_per_shard))
    in
    let n, reason =
      if alert_firing t then
        ( max (current + 1) tracked,
          Printf.sprintf "alert:%s p99=%dns" watch_rule (worst_p99_ns t) )
      else
        ( tracked,
          Printf.sprintf "rate=%.1frps target=%.1frps/shard"
            (Option.value (total_rate t) ~default:0.0)
            t.target_rps_per_shard )
    in
    (max t.min_shards (min t.max_shards n), reason)

  let evaluate t =
    t.rounds <- t.rounds + 1;
    let now = Engine.Sim.now t.sim in
    let current = shard_count t in
    let want, reason = desired t in
    if want > current then begin
      t.low_since <- None;
      if now - t.last_scale_ns >= cooldown_ns then begin
        let n = min max_step (want - current) in
        let rec go i = if i >= n then return () else scale_out t ~reason >>= fun () -> go (i + 1) in
        go 0
      end
      else return ()
    end
    else if want < current then begin
      (match t.low_since with None -> t.low_since <- Some now | Some _ -> ());
      match t.low_since with
      | Some since
        when now - since >= scale_in_hold_ns && now - t.last_scale_ns >= cooldown_ns ->
        t.low_since <- None;
        scale_in t ~reason:("headroom " ^ reason)
      | _ -> return ()
    end
    else begin
      t.low_since <- None;
      return ()
    end

  (* Bring the fleet to [min_shards] before traffic arrives. *)
  let launch t =
    let rec go () =
      if shard_count t >= t.min_shards then return ()
      else scale_out t ~reason:"launch" >>= fun () -> go ()
    in
    go ()

  (* Evaluate forever (the orchestrator appliance's main). *)
  let rec run t =
    evaluate t >>= fun () ->
    Mthread.Promise.sleep t.sim interval_ns >>= fun () -> run t
end
