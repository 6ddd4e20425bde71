type port = int

exception Invalid_port of port

type port_state = {
  owner : int;
  mutable peer : port option;
  mutable handler : (unit -> unit) option;
  mutable pending : bool;
  mutable closed : bool;
}

type t = {
  sim : Engine.Sim.t;
  stats : Xstats.t;
  ports : port_state Engine.Inttbl.t;
  mutable next_port : int;
  (* Upcalls in flight. Every one is due a constant latency after its
     notify and none is cancelled, so they fall due in notify order. *)
  upcalls : Engine.Sim.lane;
}

(* Event delivery latency: the upcall into the guest after the hypervisor
   sets the pending bit. *)
let delivery_latency_ns = 700

let create ~sim ~stats =
  { sim; stats; ports = Engine.Inttbl.create 64; next_port = 1; upcalls = Engine.Sim.lane sim }

let get t p =
  match Engine.Inttbl.find t.ports p with
  | st when not st.closed -> st
  | _ | (exception Not_found) -> raise (Invalid_port p)

let fresh t ~owner =
  let p = t.next_port in
  t.next_port <- t.next_port + 1;
  Engine.Inttbl.replace t.ports p
    { owner; peer = None; handler = None; pending = false; closed = false };
  p

let alloc_unbound t ~owner = fresh t ~owner

let bind_interdomain t ~local ~remote_port =
  let remote = get t remote_port in
  if remote.peer <> None then raise (Invalid_port remote_port);
  let p = fresh t ~owner:local in
  let local_state = get t p in
  local_state.peer <- Some remote_port;
  remote.peer <- Some p;
  p

let set_handler t p f = (get t p).handler <- Some f

let deliver t p =
  let st = get t p in
  if st.pending then begin
    match st.handler with
    | None -> ()
    | Some f ->
      st.pending <- false;
      if Trace.enabled () then
        Trace.emit ~dom:st.owner ~cat:Trace.Evtchn ~payload:[ ("port", Trace.Int p) ]
          "evtchn.deliver";
      f ()
  end

let notify t p =
  let st = get t p in
  (* A notify is the EVTCHNOP_send hypercall, the only one on the data
     path; [Xstats.hypercalls] counts it with the rest. *)
  t.stats.Xstats.hypercalls <- t.stats.Xstats.hypercalls + 1;
  t.stats.Xstats.evtchn_notifies <- t.stats.Xstats.evtchn_notifies + 1;
  if Trace.enabled () then begin
    Trace.emit ~dom:st.owner ~cat:Trace.Hypercall ~payload:[ ("port", Trace.Int p) ] "evtchn_send";
    Trace.emit ~dom:st.owner ~cat:Trace.Evtchn ~payload:[ ("port", Trace.Int p) ] "evtchn.notify"
  end;
  match st.peer with
  | None -> ()
  | Some peer_port ->
    let peer = get t peer_port in
    if not peer.pending then begin
      peer.pending <- true;
      let t0 = if Trace.enabled () then Engine.Sim.now t.sim else 0 in
      Engine.Sim.lane_at t.upcalls ~time:(Engine.Sim.now t.sim + delivery_latency_ns) (fun () ->
          if not peer.closed then begin
            if Trace.enabled () then
              Trace.record_span_ns ~dom:peer.owner ~cat:Trace.Evtchn "evtchn.wakeup"
                (Engine.Sim.now t.sim - t0);
            deliver t peer_port
          end)
    end

(* Closing actually frees the port table entries (both ends of a bound
   pair).  Dropping the entry is what releases the handler closure — a
   netif handler closes over the whole device (rings, page pool), so a
   close that merely flagged the port would pin every destroyed domain's
   device state for the lifetime of the hypervisor.  In-flight deliveries
   hold the [port_state] record directly and check [closed], so removal
   is safe; [close] is idempotent because teardown paths race. *)
let close t p =
  match Engine.Inttbl.find_opt t.ports p with
  | None -> ()
  | Some st ->
    st.closed <- true;
    st.handler <- None;
    Engine.Inttbl.remove t.ports p;
    (match st.peer with
    | None -> ()
    | Some q -> (
      match Engine.Inttbl.find_opt t.ports q with
      | Some peer ->
        peer.peer <- None;
        peer.closed <- true;
        peer.handler <- None;
        Engine.Inttbl.remove t.ports q
      | None -> ()))

let owner t p = (get t p).owner
let peer t p = (get t p).peer
