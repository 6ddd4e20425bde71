(* An L4 load-balancer appliance core: accept on a front port, pick a
   backend, splice bytes both ways. The paper's fleet story (§5) scales a
   service by booting more single-purpose appliances behind one address;
   this is the one address.

   Like every protocol engine in the tree it is a functor over the
   transport signature — the same balancer runs over the unikernel
   netstack or host sockets; [Orchestrator.Make] applies it.

   Backends are health-checked against their /metrics endpoint (every
   appliance that mounts [Core.Exporter] already serves it, so the
   check exercises the same stack the scrape plane uses): a backend that
   misses [unhealthy_after] consecutive checks stops receiving new
   connections, and recovers after [healthy_after] consecutive passes.
   Draining a backend (orchestrator scale-in) excludes it from picking
   immediately while connections in flight finish. *)

let ( >>= ) = Mthread.Promise.bind
let return = Mthread.Promise.return

type policy =
  | Hash  (** connection affinity: hash of the client endpoint's value *)
  | Least_conns  (** fewest in-flight proxied connections, ties by age *)

let policy_name = function Hash -> "hash" | Least_conns -> "least-conns"

(* Consecutive health-check outcomes that flip a backend's state. *)
let healthy_after = 2
let unhealthy_after = 2

(* How long a flow parked with no backend waits for a cold boot to
   produce one before it is refused. *)
let pending_timeout_ns = 2_000_000_000

module Make (T : Device_sig.TCP) = struct
  module C = Uhttp.Client.Make (T)

  type backend = {
    b_name : string;
    b_addr : T.ipaddr;
    b_port : int;
    b_health_port : int;
    mutable b_conns : int;  (* proxied connections in flight *)
    mutable b_total : int;  (* connections ever assigned *)
    mutable b_healthy : bool;
    mutable b_draining : bool;
    mutable b_ok_streak : int;
    mutable b_fail_streak : int;
    mutable b_checks_ok : int;
    mutable b_checks_failed : int;
  }

  (* A flow accepted while the backend set was empty, parked until a
     backend appears (scale-to-zero cold start) or the hold times out. *)
  type pending = {
    p_client : T.flow;
    p_at : int;  (* enqueue time, for held-wait accounting *)
    mutable p_settled : bool;  (* dispatched or timed out *)
    mutable p_timer : unit Mthread.Promise.t option;
  }

  type t = {
    sim : Engine.Sim.t;
    dom : int;
    tcp : T.t;
    port : int;
    policy : policy;
    check_interval_ns : int;  (* a check times out after half of it *)
    (* scale-to-zero hooks: when set, a flow arriving with no eligible
       backend is parked on [pending] and [on_demand] is poked (the
       orchestrator's cold-start path) instead of refusing outright. *)
    on_demand : (unit -> unit) option;
    pending : pending Queue.t;
    mutable pending_count : int;  (* unsettled entries in [pending] *)
    mutable held_total : int;
    mutable held_wait_max_ns : int;
    mutable backends : backend list;  (* newest first; [backends] reverses *)
    mutable conns_total : int;
    mutable refused : int;  (* accepted with no backend to give *)
    mutable active : int;
    mutable draining : bool;
    mutable drained_wakers : unit Mthread.Promise.u list;
  }

  let backends t = List.rev t.backends
  let active_connections t = t.active
  let connections_total t = t.conns_total
  let refused t = t.refused
  let pending_count t = t.pending_count
  let held_total t = t.held_total
  let held_wait_max_ns t = t.held_wait_max_ns

  let eligible t =
    List.filter (fun b -> b.b_healthy && not b.b_draining) (backends t)

  let healthy_count t = List.length (eligible t)

  let find_backend t name = List.find_opt (fun b -> b.b_name = name) t.backends

  let emit t what b =
    if Trace.enabled () then
      Trace.emit ~dom:t.dom
        ~payload:[ ("backend", Trace.String b.b_name) ]
        ~cat:(Trace.User "lb") what

  (* ---- backend set ---- *)

  let drain_backend t ~name =
    match find_backend t name with
    | None -> ()
    | Some b ->
      if not b.b_draining then begin
        b.b_draining <- true;
        emit t "lb.backend_drain" b
      end

  let remove_backend t ~name =
    (match find_backend t name with None -> () | Some b -> emit t "lb.backend_remove" b);
    t.backends <- List.filter (fun b -> b.b_name <> name) t.backends

  (* ---- picking ---- *)

  let pick t ~client:(addr, port) =
    match eligible t with
    | [] -> None
    | pool -> (
      match t.policy with
      | Hash ->
        let key = Hashtbl.hash (T.ipaddr_to_int addr, port) in
        Some (List.nth pool (key mod List.length pool))
      | Least_conns ->
        (* fewest in-flight; [pool] is oldest-first so ties go to the
           longest-lived backend (stable under churn) *)
        Some
          (List.fold_left
             (fun best b -> if b.b_conns < best.b_conns then b else best)
             (List.hd pool) (List.tl pool)))

  (* ---- the splice ---- *)

  (* One direction: copy until EOF, then half-close the other side; a
     reset on either side aborts both. Each chunk is copied before it is
     written on: [read]'s chunk is valid only until the next read, and
     [write] keeps its buffer queued until the peer acknowledges it. *)
  let pump src dst =
    let rec loop () =
      T.read src >>= function
      | None -> T.close dst
      | Some b -> T.write dst (Bytestruct.copy b) >>= fun () -> loop ()
    in
    Mthread.Promise.catch loop (fun _ ->
        T.abort dst;
        return ())

  let note_idle t =
    if t.active = 0 && t.draining then begin
      let ws = t.drained_wakers in
      t.drained_wakers <- [];
      List.iter (fun w -> Mthread.Promise.wakeup w ()) ws
    end

  let rec handle_flow t client =
    match pick t ~client:(T.remote client) with
    | None -> (
      match t.on_demand with
      | Some notify when not t.draining ->
        (* Scale-to-zero: park the flow, poke the orchestrator's
           cold-start path, and give the boot [pending_timeout_ns] to
           produce a backend before the client is refused. *)
        let e =
          { p_client = client; p_at = Engine.Sim.now t.sim; p_settled = false; p_timer = None }
        in
        Queue.add e t.pending;
        t.pending_count <- t.pending_count + 1;
        t.held_total <- t.held_total + 1;
        let timer = Mthread.Promise.sleep t.sim pending_timeout_ns in
        e.p_timer <- Some timer;
        Mthread.Promise.async (fun () ->
            Mthread.Promise.catch
              (fun () ->
                timer >>= fun () ->
                if not e.p_settled then begin
                  e.p_settled <- true;
                  t.pending_count <- t.pending_count - 1;
                  t.refused <- t.refused + 1;
                  T.abort e.p_client
                end;
                return ())
              (fun _ -> (* timer cancelled at dispatch *) return ()));
        notify ();
        return ()
      | _ ->
        (* nothing to give: refuse fast rather than queue blind *)
        t.refused <- t.refused + 1;
        T.abort client;
        return ())
    | Some b ->
      t.conns_total <- t.conns_total + 1;
      t.active <- t.active + 1;
      b.b_conns <- b.b_conns + 1;
      b.b_total <- b.b_total + 1;
      Mthread.Promise.finalize
        (fun () ->
          Mthread.Promise.catch
            (fun () ->
              T.connect t.tcp ~dst:b.b_addr ~dst_port:b.b_port >>= fun server ->
              Mthread.Promise.join [ pump client server; pump server client ])
            (fun _ ->
              (* backend refused or died mid-splice: drop the client *)
              T.abort client;
              return ()))
        (fun () ->
          b.b_conns <- b.b_conns - 1;
          t.active <- t.active - 1;
          note_idle t;
          return ())

  (* A backend appeared (cold boot finished, or a sick one recovered):
     re-dispatch every parked flow in arrival order. *)
  and flush_pending t =
    if t.pending_count > 0 && eligible t <> [] then begin
      let ready = ref [] in
      while not (Queue.is_empty t.pending) do
        let e = Queue.pop t.pending in
        if not e.p_settled then begin
          e.p_settled <- true;
          t.pending_count <- t.pending_count - 1;
          (match e.p_timer with Some tm -> Mthread.Promise.cancel tm | None -> ());
          let waited = Engine.Sim.now t.sim - e.p_at in
          if waited > t.held_wait_max_ns then t.held_wait_max_ns <- waited;
          ready := e :: !ready
        end
      done;
      List.iter
        (fun e -> Mthread.Promise.async (fun () -> handle_flow t e.p_client))
        (List.rev !ready)
    end

  let add_backend t ~name ~addr ~port ~health_port =
    if not (List.exists (fun b -> b.b_name = name) t.backends) then begin
      let b =
        {
          b_name = name;
          b_addr = addr;
          b_port = port;
          b_health_port = health_port;
          b_conns = 0;
          b_total = 0;
          (* optimistic: the orchestrator registers a shard after its
             stack is up, so don't make it wait out a first check round *)
          b_healthy = true;
          b_draining = false;
          b_ok_streak = 0;
          b_fail_streak = 0;
          b_checks_ok = 0;
          b_checks_failed = 0;
        }
      in
      t.backends <- b :: t.backends;
      emit t "lb.backend_add" b;
      flush_pending t
    end

  (* ---- health checks ---- *)

  let check t b =
    Mthread.Promise.catch
      (fun () ->
        Mthread.Promise.with_timeout t.sim (t.check_interval_ns / 2) (fun () ->
            C.get_once t.tcp ~dst:b.b_addr ~port:b.b_health_port "/metrics")
        >>= fun resp -> return (resp.Uhttp.Http_wire.status = 200))
      (fun _ -> return false)
    >>= fun ok ->
    if ok then begin
      b.b_checks_ok <- b.b_checks_ok + 1;
      b.b_fail_streak <- 0;
      b.b_ok_streak <- b.b_ok_streak + 1;
      if (not b.b_healthy) && b.b_ok_streak >= healthy_after then begin
        b.b_healthy <- true;
        emit t "lb.backend_up" b;
        flush_pending t
      end
    end
    else begin
      b.b_checks_failed <- b.b_checks_failed + 1;
      b.b_ok_streak <- 0;
      b.b_fail_streak <- b.b_fail_streak + 1;
      if b.b_healthy && b.b_fail_streak >= unhealthy_after then begin
        b.b_healthy <- false;
        emit t "lb.backend_down" b
      end
    end;
    return ()

  (* One round: check every backend sequentially (deterministic order). *)
  let health_round t =
    let rec go = function
      | [] -> return ()
      | b :: rest -> check t b >>= fun () -> go rest
    in
    go (backends t)

  let rec run_health t =
    if t.draining then return ()
    else
      health_round t >>= fun () ->
      Mthread.Promise.sleep t.sim t.check_interval_ns >>= fun () -> run_health t

  (* ---- lifecycle ---- *)

  let create sim ?(dom = -1) ?(policy = Least_conns) ~check_interval_ns ?on_demand ~tcp ~port () =
    let t =
      {
        sim;
        dom;
        tcp;
        port;
        policy;
        check_interval_ns;
        on_demand;
        pending = Queue.create ();
        pending_count = 0;
        held_total = 0;
        held_wait_max_ns = 0;
        backends = [];
        conns_total = 0;
        refused = 0;
        active = 0;
        draining = false;
        drained_wakers = [];
      }
    in
    T.listen tcp ~port (fun flow -> handle_flow t flow);
    Mthread.Promise.async (fun () -> run_health t);
    if Trace.Metrics.enabled () then begin
      let reg kind name read = Trace.Metrics.register_read ~dom ~kind name read in
      reg Trace.Metrics.Counter "lb_conns_total" (fun () -> t.conns_total);
      reg Trace.Metrics.Counter "lb_refused" (fun () -> t.refused);
      reg Trace.Metrics.Counter "lb_held_total" (fun () -> t.held_total);
      reg Trace.Metrics.Gauge "lb_held_pending" (fun () -> t.pending_count);
      reg Trace.Metrics.Gauge "lb_active_conns" (fun () -> t.active);
      reg Trace.Metrics.Gauge "lb_backends" (fun () -> List.length t.backends);
      reg Trace.Metrics.Gauge "lb_backends_healthy" (fun () -> healthy_count t)
    end;
    t

  (* Graceful drain ([Appliance.Handle.drain]'s hook): close the front
     listener, let splices in flight finish, resolve once idle. *)
  let drain t =
    if not t.draining then begin
      t.draining <- true;
      T.unlisten t.tcp ~port:t.port;
      (* Parked flows will never get a backend now: refuse them so no
         client hangs out its timeout against a draining balancer. *)
      while not (Queue.is_empty t.pending) do
        let e = Queue.pop t.pending in
        if not e.p_settled then begin
          e.p_settled <- true;
          t.pending_count <- t.pending_count - 1;
          (match e.p_timer with Some tm -> Mthread.Promise.cancel tm | None -> ());
          t.refused <- t.refused + 1;
          T.abort e.p_client
        end
      done
    end;
    if t.active = 0 then return ()
    else begin
      let p, w = Mthread.Promise.wait () in
      t.drained_wakers <- w :: t.drained_wakers;
      p
    end

  let draining t = t.draining
end
