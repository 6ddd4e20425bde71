(* A monitoring unikernel: the missing introspection plane of a sealed
   appliance fleet. Targets are discovered from the bridge's service
   directory, scraped over real simulated TCP (the scrape traffic
   contends with the workload and is visible in traces), stored in
   fixed-size ring-buffer time series, and evaluated against SLO rules
   whose fire/resolve transitions land in the trace as alert events. *)

let ( >>= ) = Mthread.Promise.bind
let return = Mthread.Promise.return

(* ---- ring-buffer time series ---- *)

module Series = struct
  (* Samples each series retains: 64 s of history at the fleet's 250 ms
     scrape interval. *)
  let capacity = 256

  type t = {
    times : int array;  (* virtual-time ns *)
    values : float array;
    mutable len : int;  (* samples held, <= capacity *)
    mutable next : int;  (* write position *)
  }

  let create () =
    { times = Array.make capacity 0; values = Array.make capacity 0.0; len = 0; next = 0 }

  let push t ~time v =
    t.times.(t.next) <- time;
    t.values.(t.next) <- v;
    t.next <- (t.next + 1) mod capacity;
    if t.len < capacity then t.len <- t.len + 1

  let length t = t.len

  (* [get t i]: i-th retained sample, oldest first. *)
  let get t i =
    if i < 0 || i >= t.len then invalid_arg "Monitor.Series.get: index out of window";
    let pos = (t.next - t.len + i + capacity * 2) mod capacity in
    (t.times.(pos), t.values.(pos))

  let last t = if t.len = 0 then None else Some (get t (t.len - 1))

  let to_list t =
    let rec go i acc = if i < 0 then acc else go (i - 1) (get t i :: acc) in
    go (t.len - 1) []

  (* Per-second rate of change over the most recent 8 samples (counter
     derivation). None until two samples exist or while time stands
     still. *)
  let rate t =
    if t.len < 2 then None
    else begin
      let n = min 8 t.len in
      let t0, v0 = get t (t.len - n) in
      let t1, v1 = get t (t.len - 1) in
      if t1 <= t0 then None else Some ((v1 -. v0) *. 1e9 /. float_of_int (t1 - t0))
    end
end

(* ---- exposition text parsing ---- *)

(* Parse Prometheus-style text (Trace.Metrics.to_text). The [dom] label
   names the exporter and is implied by which target we scraped, so it is
   stripped; other labels (quantile) stay in the series key:
   [http_request_ns{quantile="0.99"}]. *)
let parse_exposition text =
  let parse_line line =
    let line = String.trim line in
    if line = "" || line.[0] = '#' then None
    else
      match String.rindex_opt line ' ' with
      | None -> None
      | Some sp -> (
        let name_part = String.sub line 0 sp in
        let value_part = String.sub line (sp + 1) (String.length line - sp - 1) in
        match float_of_string_opt value_part with
        | None -> None
        | Some v ->
          let key =
            match String.index_opt name_part '{' with
            | None -> name_part
            | Some lb ->
              let base = String.sub name_part 0 lb in
              let rb = try String.rindex name_part '}' with Not_found -> String.length name_part - 1 in
              let labels = String.sub name_part (lb + 1) (rb - lb - 1) in
              let kept =
                String.split_on_char ',' labels
                |> List.filter (fun l ->
                       l <> ""
                       && not (String.length l >= 4 && String.sub l 0 4 = "dom="))
              in
              if kept = [] then base
              else Printf.sprintf "%s{%s}" base (String.concat "," kept)
          in
          Some (key, v))
  in
  String.split_on_char '\n' text |> List.filter_map parse_line

(* ---- SLO rules ---- *)

module Slo = struct
  (* What a rule watches: the latest sample of a series (gauges,
     quantiles) or its per-second rate (counters). *)
  type source = Value of string | Rate of string

  type cmp = Above | Below

  type rule = { r_name : string; r_source : source; r_cmp : cmp; r_threshold : float }

  let rule ~source ~cmp ~threshold name =
    { r_name = name; r_source = source; r_cmp = cmp; r_threshold = threshold }

  type state = {
    s_rule : rule;
    mutable breach_since : int option;
    mutable clear_since : int option;
    mutable firing : bool;
  }

  let state rule = { s_rule = rule; breach_since = None; clear_since = None; firing = false }

  type transition = Fired of float | Resolved of float

  (* Advance one rule given the current observation. A breach must hold
     for [debounce_ns] before the rule fires, and stay clear as long
     before it resolves. [None] (no data yet) never breaches — a monitor
     must not alert on its own cold start. *)
  let step st ~now ~debounce_ns value =
    let r = st.s_rule in
    let breached =
      match value with
      | None -> false
      | Some v -> ( match r.r_cmp with Above -> v > r.r_threshold | Below -> v < r.r_threshold)
    in
    if breached then begin
      st.clear_since <- None;
      (match st.breach_since with None -> st.breach_since <- Some now | Some _ -> ());
      match st.breach_since with
      | Some since when (not st.firing) && now - since >= debounce_ns ->
        st.firing <- true;
        Some (Fired (Option.value value ~default:0.0))
      | _ -> None
    end
    else begin
      st.breach_since <- None;
      if not st.firing then begin
        st.clear_since <- None;
        None
      end
      else begin
        (match st.clear_since with None -> st.clear_since <- Some now | Some _ -> ());
        match st.clear_since with
        | Some since when now - since >= debounce_ns ->
          st.firing <- false;
          st.clear_since <- None;
          Some (Resolved (Option.value value ~default:0.0))
        | _ -> None
      end
    end
end

type alert = {
  al_rule : string;
  al_target : string;
  al_fired_ns : int;
  mutable al_resolved_ns : int option;
}

let sparkline_glyphs = " .:-=+*#%@"

(* Render a value sequence as a 44-column sparkline, scaled to its own
   min..max (flat series render as all-low). *)
let sparkline values =
  let width = 44 in
  match values with
  | [] -> String.make width ' '
  | _ ->
    let n = List.length values in
    let arr = Array.of_list values in
    let lo = Array.fold_left min arr.(0) arr and hi = Array.fold_left max arr.(0) arr in
    let glyph v =
      let g = String.length sparkline_glyphs in
      let i =
        if hi <= lo then 0
        else
          let f = (v -. lo) /. (hi -. lo) in
          min (g - 1) (int_of_float (f *. float_of_int (g - 1) +. 0.5))
      in
      sparkline_glyphs.[i]
    in
    String.init width (fun i ->
        (* resample n points onto [width] columns *)
        let j = i * (n - 1) / (width - 1) in
        glyph arr.(j))

(* Discovery: the bridge's service directory, oldest first. *)
let discover bridge = Netsim.Bridge.services bridge

module Make (T : Device_sig.TCP) = struct
  module C = Uhttp.Client.Make (T)

  type target = {
    tg_name : string;
    tg_addr : T.ipaddr;
    tg_port : int;
    tg_series : (string, Series.t) Hashtbl.t;
    mutable tg_keys : string list;  (* insertion order, for determinism *)
    mutable tg_ok : int;
    mutable tg_failed : int;
    tg_slo : Slo.state list;
  }

  type t = {
    sim : Engine.Sim.t;
    dom : int;
    tcp : T.t;
    interval_ns : int;  (* a scrape times out after half of it *)
    rules : Slo.rule list;
    mutable targets : target list;  (* newest first; [targets] reverses *)
    mutable rounds : int;
    mutable alerts : alert list;  (* newest first; [alerts] reverses *)
  }

  let create sim ?(dom = -1) ~tcp ~interval_ns ~rules () =
    let t = { sim; dom; tcp; interval_ns; rules; targets = []; rounds = 0; alerts = [] } in
    if Trace.Metrics.enabled () then begin
      let reg kind name read = Trace.Metrics.register_read ~dom ~kind name read in
      reg Trace.Metrics.Counter "monitor_rounds" (fun () -> t.rounds);
      reg Trace.Metrics.Gauge "monitor_targets" (fun () -> List.length t.targets);
      reg Trace.Metrics.Gauge "monitor_alerts_firing" (fun () ->
          List.length (List.filter (fun a -> a.al_resolved_ns = None) t.alerts))
    end;
    t

  let add_target t ~name ~addr ~port =
    if not (List.exists (fun tg -> tg.tg_name = name) t.targets) then
      t.targets <-
        {
          tg_name = name;
          tg_addr = addr;
          tg_port = port;
          tg_series = Hashtbl.create 32;
          tg_keys = [];
          tg_ok = 0;
          tg_failed = 0;
          tg_slo = List.map Slo.state t.rules;
        }
        :: t.targets

  (* Forget a retired target (orchestrator scale-in): its series go with
     it, and its outstanding alerts resolve now — nothing will ever
     evaluate them again, and a permanently-firing ghost alert would pin
     any controller watching the alert list. *)
  let remove_target t ~name =
    let now = Engine.Sim.now t.sim in
    List.iter
      (fun a -> if a.al_target = name && a.al_resolved_ns = None then a.al_resolved_ns <- Some now)
      t.alerts;
    t.targets <- List.filter (fun tg -> tg.tg_name <> name) t.targets

  let targets t = List.rev t.targets
  let alerts t = List.rev t.alerts
  let rounds t = t.rounds

  let find_target t name = List.find_opt (fun tg -> tg.tg_name = name) t.targets

  let series tg key = Hashtbl.find_opt tg.tg_series key
  let series_keys tg = List.rev tg.tg_keys

  (* Observe one source for one target right now. A counter whose series
     has stalled (no fresh sample for several intervals) reads as rate 0 —
     a dead or partitioned exporter must not keep reporting its last good
     rate forever. *)
  let observe t tg source =
    match source with
    | Slo.Value key -> Option.map snd (Option.bind (series tg key) Series.last)
    | Slo.Rate key -> (
      match series tg key with
      | None -> None
      | Some s -> (
        match Series.last s with
        | Some (tl, _) when Engine.Sim.now t.sim - tl > 3 * t.interval_ns -> Some 0.0
        | _ -> Series.rate s))

  (* Every rule's breach must persist for two scrape rounds before it
     fires, and stay clear for two before it resolves: one late scrape
     neither raises nor clears an alert. *)
  let evaluate t tg ~now =
    List.iter
      (fun st ->
        let v = observe t tg st.Slo.s_rule.Slo.r_source in
        match Slo.step st ~now ~debounce_ns:(2 * t.interval_ns) v with
        | None -> ()
        | Some (Slo.Fired value) ->
          t.alerts <-
            { al_rule = st.Slo.s_rule.Slo.r_name; al_target = tg.tg_name; al_fired_ns = now;
              al_resolved_ns = None }
            :: t.alerts;
          if Trace.enabled () then
            Trace.emit ~dom:t.dom
              ~payload:
                [
                  ("rule", Trace.String st.Slo.s_rule.Slo.r_name);
                  ("target", Trace.String tg.tg_name);
                  ("value", Trace.Float value);
                ]
              ~cat:(Trace.User "monitor") "alert.fire";
          (* An SLO breach is a failure signal: freeze the black box so
             the postmortem covers the window that caused the alert. *)
          if Trace.Flight.enabled () then
            Trace.Flight.trip ~dom:t.dom
              ~payload:
                [
                  ("rule", Trace.String st.Slo.s_rule.Slo.r_name);
                  ("target", Trace.String tg.tg_name);
                  ("value", Trace.Float value);
                ]
              ~reason:"alert.fire" ()
        | Some (Slo.Resolved value) ->
          (match
             List.find_opt
               (fun a ->
                 a.al_rule = st.Slo.s_rule.Slo.r_name
                 && a.al_target = tg.tg_name
                 && a.al_resolved_ns = None)
               t.alerts
           with
          | Some a -> a.al_resolved_ns <- Some now
          | None -> ());
          if Trace.enabled () then
            Trace.emit ~dom:t.dom
              ~payload:
                [
                  ("rule", Trace.String st.Slo.s_rule.Slo.r_name);
                  ("target", Trace.String tg.tg_name);
                  ("value", Trace.Float value);
                ]
              ~cat:(Trace.User "monitor") "alert.resolve")
      tg.tg_slo

  let scrape t tg =
    Mthread.Promise.catch
      (fun () ->
        Mthread.Promise.with_timeout t.sim (t.interval_ns / 2) (fun () ->
            C.get_once t.tcp ~dst:tg.tg_addr ~port:tg.tg_port "/metrics")
        >>= fun resp ->
        let now = Engine.Sim.now t.sim in
        if resp.Uhttp.Http_wire.status = 200 then begin
          tg.tg_ok <- tg.tg_ok + 1;
          List.iter
            (fun (key, v) ->
              let s =
                match Hashtbl.find_opt tg.tg_series key with
                | Some s -> s
                | None ->
                  let s = Series.create () in
                  Hashtbl.replace tg.tg_series key s;
                  tg.tg_keys <- key :: tg.tg_keys;
                  s
              in
              Series.push s ~time:now v)
            (parse_exposition resp.Uhttp.Http_wire.resp_body)
        end
        else tg.tg_failed <- tg.tg_failed + 1;
        return ())
      (fun _ ->
        tg.tg_failed <- tg.tg_failed + 1;
        if Trace.enabled () then
          Trace.emit ~dom:t.dom
            ~payload:[ ("target", Trace.String tg.tg_name) ]
            ~cat:(Trace.User "monitor") "monitor.scrape_failed";
        return ())

  (* One scrape round: poll every target sequentially (deterministic
     order), then evaluate each target's rules at the round's end time. *)
  let round t =
    t.rounds <- t.rounds + 1;
    let rec go = function
      | [] -> return ()
      | tg :: rest -> scrape t tg >>= fun () -> go rest
    in
    go (targets t) >>= fun () ->
    let now = Engine.Sim.now t.sim in
    List.iter (fun tg -> evaluate t tg ~now) (targets t);
    return ()

  let run_rounds t n =
    let rec go i =
      if i >= n then return ()
      else
        round t >>= fun () ->
        Mthread.Promise.sleep t.sim t.interval_ns >>= fun () -> go (i + 1)
    in
    go 0

  (* Scrape forever (the monitor appliance's main). *)
  let rec run t = round t >>= fun () -> Mthread.Promise.sleep t.sim t.interval_ns >>= fun () -> run t
end
