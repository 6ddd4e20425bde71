type vcpu_acc = { mutable a_run_ns : int; mutable a_wait_ns : int; mutable a_slices : int }
type vcpu_totals = { vt_dom : int; vt_run_ns : int; vt_wait_ns : int; vt_slices : int }

type t = {
  mutable now : int;
  q : Eventq.t;
  prng : Prng.t;
  mutable stopped : bool;
  vcpu : (int, vcpu_acc) Hashtbl.t;
  (* Entries queued in lanes behind their lane's head; the heads are in
     [q]. *)
  mutable lane_waiting : int;
}

type handle = Eventq.handle

let create ?(seed = 42) () =
  let t =
    {
      now = 0;
      q = Eventq.create ();
      prng = Prng.create ~seed ();
      stopped = false;
      vcpu = Hashtbl.create 8;
      lane_waiting = 0;
    }
  in
  (* The trace timeline follows the most recently created simulator. *)
  Trace.set_clock (fun () -> t.now);
  t

let now t = t.now
let prng t = t.prng

(* Causal flow propagation: a callback scheduled while a flow is
   ambient runs under that flow, however many hops later. Only when
   tracing — with it off, [f] is pushed untouched. The same trick
   applies to profiler frames, so vCPU charges made by deferred
   continuations still land on the layer that caused them. The wrapping
   closures are built out of line, because a function that builds a
   closure is never inlined and [capture] is inlined into [at] and
   [lane_at]; [opaque_identity] keeps each builder a two-argument
   function, not a partial application. *)
let in_flow fl f = Sys.opaque_identity (fun () -> Trace.Flow.wrap fl f)
let in_frame node f = Sys.opaque_identity (fun () -> Trace.Prof.wrap node f)

let[@inline] capture f =
  let f =
    if Trace.enabled () then begin
      let fl = Trace.Flow.current () in
      if fl >= 0 then in_flow fl f else f
    end
    else f
  in
  if Trace.Prof.enabled () then begin
    let node = Trace.Prof.current_node () in
    if not (Trace.Prof.is_root node) then in_frame node f else f
  end
  else f

let at t ~time f = Eventq.push t.q ~time:(max time t.now) (capture f)

(* A lane is a FIFO of events whose times never decrease: a vCPU's run
   queue (continuations waiting out its backlog, in the order their
   slices end), or any source that schedules at a constant delay and
   never cancels. Insertion keys always increase too, so the lane is
   already sorted by the heap's (time, seq) order, and only its head
   needs to be in the heap. n queued events are then one heap entry
   instead of n, and a lane entry costs three array slots instead of a
   handle and a sift through the heap. The ring is three parallel arrays
   (times, seqs, actions), so queueing allocates nothing but the
   occasional doubling. *)
type lane = {
  sim : t;
  mutable l_times : int array;
  mutable l_seqs : int array;
  mutable l_actions : (unit -> unit) array;
  mutable l_head : int;
  mutable l_len : int;
  (* The head's heap entry, pushed again for each entry in turn. *)
  mutable l_entry : Eventq.handle;
}

let no_action () = ()
let no_entry = Eventq.handle (Eventq.create ()) no_action

(* The head fired: put the next entry in the heap, then run the head. *)
let pop_lane l =
  let i = l.l_head in
  let f = Array.unsafe_get l.l_actions i in
  Array.unsafe_set l.l_actions i no_action;
  l.l_head <- (i + 1) land (Array.length l.l_actions - 1);
  l.l_len <- l.l_len - 1;
  if l.l_len > 0 then begin
    let t = l.sim and j = l.l_head in
    t.lane_waiting <- t.lane_waiting - 1;
    Eventq.push_keyed t.q l.l_entry ~time:(Array.unsafe_get l.l_times j)
      ~seq:(Array.unsafe_get l.l_seqs j)
  end;
  f ()

let lane t =
  let l =
    {
      sim = t;
      l_times = [||];
      l_seqs = [||];
      l_actions = [||];
      l_head = 0;
      l_len = 0;
      l_entry = no_entry;
    }
  in
  l.l_entry <- Eventq.handle t.q (fun () -> pop_lane l);
  l

let lane_length l = l.l_len

(* Double the ring (from empty: four slots), unrolling it to start at 0. *)
let grow_lane l =
  let cap = Array.length l.l_actions in
  let cap' = if cap = 0 then 4 else 2 * cap in
  let times = Array.make cap' 0 and seqs = Array.make cap' 0 in
  let actions = Array.make cap' no_action in
  for k = 0 to l.l_len - 1 do
    let i = (l.l_head + k) land (cap - 1) in
    times.(k) <- l.l_times.(i);
    seqs.(k) <- l.l_seqs.(i);
    actions.(k) <- l.l_actions.(i)
  done;
  l.l_times <- times;
  l.l_seqs <- seqs;
  l.l_actions <- actions;
  l.l_head <- 0

let lane_at l ~time f =
  let t = l.sim in
  let f = capture f in
  let time = max time t.now in
  let cap = Array.length l.l_actions in
  if l.l_len > 0
     && time < Array.unsafe_get l.l_times ((l.l_head + l.l_len - 1) land (cap - 1))
  then invalid_arg "Sim.lane_at: time before the lane's last entry";
  let seq = Eventq.reserve_seq t.q in
  if l.l_len = cap then grow_lane l;
  let i = (l.l_head + l.l_len) land (Array.length l.l_actions - 1) in
  Array.unsafe_set l.l_times i time;
  Array.unsafe_set l.l_seqs i seq;
  Array.unsafe_set l.l_actions i f;
  l.l_len <- l.l_len + 1;
  if l.l_len = 1 then Eventq.push_keyed t.q l.l_entry ~time ~seq
  else t.lane_waiting <- t.lane_waiting + 1

let vcpu_acc t ~dom =
  match Hashtbl.find_opt t.vcpu dom with
  | Some a -> a
  | None ->
    let a = { a_run_ns = 0; a_wait_ns = 0; a_slices = 0 } in
    Hashtbl.replace t.vcpu dom a;
    if Trace.Metrics.enabled () then begin
      (* Pull metrics over the accumulator the scheduler already keeps:
         zero added cost on the accounting fast path. *)
      Trace.Metrics.register_read ~dom ~kind:Trace.Metrics.Counter "vcpu_run_ns" (fun () ->
          a.a_run_ns);
      Trace.Metrics.register_read ~dom ~kind:Trace.Metrics.Counter "vcpu_wait_ns" (fun () ->
          a.a_wait_ns);
      Trace.Metrics.register_read ~dom ~kind:Trace.Metrics.Counter "vcpu_slices" (fun () ->
          a.a_slices)
    end;
    a

let vcpu_slice a ~run_ns ~wait_ns =
  a.a_run_ns <- a.a_run_ns + max 0 run_ns;
  a.a_wait_ns <- a.a_wait_ns + max 0 wait_ns;
  a.a_slices <- a.a_slices + 1

let vcpu_totals t =
  Hashtbl.fold
    (fun dom a acc ->
      { vt_dom = dom; vt_run_ns = a.a_run_ns; vt_wait_ns = a.a_wait_ns; vt_slices = a.a_slices }
      :: acc)
    t.vcpu []
  |> List.sort (fun a b -> compare a.vt_dom b.vt_dom)

let schedule t ~delay f = at t ~time:(t.now + max 0 delay) f

let cancel = Eventq.cancel

let pending t = Eventq.length t.q + t.lane_waiting

let step t =
  if Eventq.length t.q = 0 then false
  else begin
    let time = Eventq.min_time t.q in
    if time > t.now then t.now <- time;
    let action = Eventq.take t.q in
    if Trace.enabled () then
      Trace.emit ~cat:Trace.Sched
        ~payload:[ ("pending", Trace.Int (pending t)) ]
        "sim.dispatch";
    if Trace.Flight.enabled () then Trace.Flight.watermark "sim.pending" (pending t);
    action ();
    true
  end

let run ?until t =
  t.stopped <- false;
  let limit = match until with None -> max_int | Some limit -> limit in
  while (not t.stopped) && Eventq.length t.q > 0 && Eventq.min_time t.q <= limit do
    ignore (step t)
  done;
  match until with
  | Some limit when not t.stopped -> t.now <- max t.now limit
  | _ -> ()

let stop t = t.stopped <- true

let ns x = x
let us x = x * 1_000
let ms x = x * 1_000_000
let sec x = x * 1_000_000_000
let sec_f x = int_of_float (x *. 1e9)
let to_sec x = float_of_int x /. 1e9
let to_ms x = float_of_int x /. 1e6
