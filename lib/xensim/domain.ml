type state = Building | Running | Blocked | Shutdown of int

type t = {
  id : int;
  name : string;
  mem_mib : int;
  platform : Platform.t;
  sim : Engine.Sim.t;
  stats : Xstats.t;
  pagetable : Pagetable.t;
  mutable state : state;
  cpu_free_at : int array;
  mutable busy_ns : int;
}

let create ~sim ~stats ~id ~name ~mem_mib ~platform ?(vcpus = 1) () =
  if vcpus < 1 then invalid_arg "Domain.create: need at least one vCPU";
  {
    id;
    name;
    mem_mib;
    platform;
    sim;
    stats;
    pagetable = Pagetable.create ();
    state = Building;
    cpu_free_at = Array.make vcpus 0;
    busy_ns = 0;
  }

let vcpus d = Array.length d.cpu_free_at

(* SMP tax: shared run-queues, locks and cache traffic make each unit of
   work dearer as vCPUs are added — the reason Figure 13's scale-out
   configurations beat scale-up. *)
let contention_factor d = 1.0 +. (0.15 *. float_of_int (vcpus d - 1))

let reserve_slice d cost =
  let cost = int_of_float (float_of_int (max 0 cost) *. contention_factor d) in
  let now = Engine.Sim.now d.sim in
  (* Least-loaded vCPU. *)
  let lane = ref 0 in
  Array.iteri (fun i v -> if v < d.cpu_free_at.(!lane) then lane := i) d.cpu_free_at;
  let start = max now d.cpu_free_at.(!lane) in
  let finish = start + cost in
  d.cpu_free_at.(!lane) <- finish;
  d.busy_ns <- d.busy_ns + cost;
  Engine.Sim.vcpu_account d.sim ~dom:d.id ~run_ns:cost ~wait_ns:(start - now);
  (* Profiler tick: every vCPU nanosecond charged lands on the ambient
     layer stack (the scheduler re-installs it across deferred hops). *)
  if Trace.Prof.enabled () then Trace.Prof.account ~dom:d.id ~wait_ns:(start - now) cost;
  (start, finish)

let reserve d cost = snd (reserve_slice d cost)

(* Runs when the slice completes: retro-record the wakeup latency
   [queued, start] and the execution [start, finish] so the offline
   analyzer can split a flow's gap into queueing vs. processing.
   lag_ns positions vcpu.wait relative to the event's own timestamp
   (which is [finish] in the trace clock's re-based timeline), keeping
   the payload valid across consecutive simulator instances. *)
let note_slice d ~queued ~start ~finish () =
  if Trace.enabled () then begin
    Trace.record_span_ns ~dom:d.id
      ~payload:[ ("lag_ns", Trace.Int (finish - start)) ]
      ~cat:Trace.Sched "vcpu.wait" (start - queued);
    Trace.record_span_ns ~dom:d.id ~cat:Trace.Sched "vcpu.run" (finish - start)
  end

let charge d ~cost =
  let queued = Engine.Sim.now d.sim in
  let start, finish = reserve_slice d cost in
  let p = Mthread.Promise.sleep d.sim (finish - queued) in
  if Trace.enabled () then Mthread.Promise.map (note_slice d ~queued ~start ~finish) p else p

let charge_k d ~cost k =
  let queued = Engine.Sim.now d.sim in
  let start, finish = reserve_slice d cost in
  let k =
    if Trace.enabled () then (
      fun () ->
        note_slice d ~queued ~start ~finish ();
        k ())
    else k
  in
  ignore (Engine.Sim.at d.sim ~time:finish k)

let utilisation d ~span_ns =
  if span_ns <= 0 then 0.0
  else float_of_int d.busy_ns /. float_of_int (span_ns * vcpus d)

let hypercall d ~name =
  d.stats.Xstats.hypercalls <- d.stats.Xstats.hypercalls + 1;
  if Trace.enabled () then Trace.emit ~dom:d.id ~cat:Trace.Hypercall name;
  ignore (reserve d d.platform.Platform.hypercall_ns)

let shutdown d ~exit_code = d.state <- Shutdown exit_code

