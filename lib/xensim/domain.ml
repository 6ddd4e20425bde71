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
  lanes : Engine.Sim.lane array;
  mutable acc : Engine.Sim.vcpu_acc option;
  mutable slice_start : int;
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
    lanes = Array.init vcpus (fun _ -> Engine.Sim.lane sim);
    acc = None;
    slice_start = 0;
  }

let vcpus d = Array.length d.cpu_free_at

(* SMP tax: shared run-queues, locks and cache traffic make each unit of
   work dearer as vCPUs are added — the reason Figure 13's scale-out
   configurations beat scale-up. *)
let contention_factor d = 1.0 +. (0.15 *. float_of_int (vcpus d - 1))

(* The simulator's accumulator, looked up on the first slice (when, with
   metrics on, it is registered) and held from then on. *)
let acc d =
  match d.acc with
  | Some a -> a
  | None ->
    let a = Engine.Sim.vcpu_acc d.sim ~dom:d.id in
    d.acc <- Some a;
    a

(* Take [cost] ns on [vcpu] from [now]. *)
let take d vcpu cost now =
  let free = Array.unsafe_get d.cpu_free_at vcpu in
  let start = if now > free then now else free in
  Array.unsafe_set d.cpu_free_at vcpu (start + cost);
  d.slice_start <- start;
  d.busy_ns <- d.busy_ns + cost;
  Engine.Sim.vcpu_slice (acc d) ~run_ns:cost ~wait_ns:(start - now);
  (* Profiler tick: every vCPU nanosecond charged lands on the ambient
     layer stack (the scheduler re-installs it across deferred hops). *)
  if Trace.Prof.enabled () then Trace.Prof.account ~dom:d.id ~wait_ns:(start - now) cost;
  vcpu

(* Reserve a slice on the least-loaded vCPU and return that vCPU: the
   slice runs from [d.slice_start] to its [cpu_free_at]. An index rather
   than a (start, finish) pair keeps the charge path allocation-free, and
   a single vCPU (every unikernel) skips the search and the SMP tax. *)
let reserve_slice d cost =
  let now = Engine.Sim.now d.sim in
  let n = Array.length d.cpu_free_at in
  let cost = if cost > 0 then cost else 0 in
  if n = 1 then take d 0 cost now
  else begin
    let cost = int_of_float (float_of_int cost *. contention_factor d) in
    let best = ref 0 in
    for i = 1 to n - 1 do
      if d.cpu_free_at.(i) < d.cpu_free_at.(!best) then best := i
    done;
    take d !best cost now
  end

(* Runs when the slice completes: retro-record the wakeup latency
   [queued, start] and the execution [start, finish] so the offline
   analyzer can split a flow's gap into queueing vs. processing.
   lag_ns positions vcpu.wait relative to the event's own timestamp
   (which is [finish] in the trace clock's re-based timeline), keeping
   the payload valid across consecutive simulator instances. *)
let note_slice d ~queued ~start ~finish =
  if Trace.enabled () then begin
    Trace.record_span_ns ~dom:d.id
      ~payload:[ ("lag_ns", Trace.Int (finish - start)) ]
      ~cat:Trace.Sched "vcpu.wait" (start - queued);
    Trace.record_span_ns ~dom:d.id ~cat:Trace.Sched "vcpu.run" (finish - start)
  end

let charge_k d ~cost k =
  let queued = Engine.Sim.now d.sim in
  let vcpu = reserve_slice d cost in
  let finish = d.cpu_free_at.(vcpu) in
  let k =
    if Trace.enabled () then begin
      let start = d.slice_start in
      fun () ->
        note_slice d ~queued ~start ~finish;
        k ()
    end
    else k
  in
  Engine.Sim.lane_at d.lanes.(vcpu) ~time:finish k

(* Nothing waits for the slice, so untraced there is nothing to queue:
   the slice is taken exactly as [charge_k] takes it. Traced, the event
   stays, because its firing records the vcpu.wait/vcpu.run spans. *)
let book d ~cost =
  if Trace.enabled () then charge_k d ~cost ignore else ignore (reserve_slice d cost)

(* A lane entry cannot be cancelled: a cancelled charge's continuation
   still fires at the slice's end and finds its wakener settled. *)
let charge d ~cost =
  let p, u = Mthread.Promise.wait () in
  charge_k d ~cost (fun () -> Mthread.Promise.wakeup u ());
  p

let utilisation d ~span_ns =
  if span_ns <= 0 then 0.0
  else float_of_int d.busy_ns /. float_of_int (span_ns * vcpus d)

let hypercall d ~name =
  d.stats.Xstats.hypercalls <- d.stats.Xstats.hypercalls + 1;
  if Trace.enabled () then Trace.emit ~dom:d.id ~cat:Trace.Hypercall name;
  ignore (reserve_slice d d.platform.Platform.hypercall_ns)

let shutdown d ~exit_code = d.state <- Shutdown exit_code

