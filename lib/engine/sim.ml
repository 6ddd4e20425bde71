type vcpu_acc = { mutable a_run_ns : int; mutable a_wait_ns : int; mutable a_slices : int }
type vcpu_totals = { vt_dom : int; vt_run_ns : int; vt_wait_ns : int; vt_slices : int }

type t = {
  mutable now : int;
  q : Eventq.t;
  prng : Prng.t;
  mutable stopped : bool;
  vcpu : (int, vcpu_acc) Hashtbl.t;
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
   continuations still land on the layer that caused them. *)
let at t ~time f =
  let f =
    if Trace.enabled () then begin
      let fl = Trace.Flow.current () in
      if fl >= 0 then fun () -> Trace.Flow.wrap fl f else f
    end
    else f
  in
  let f =
    if Trace.Prof.enabled () then begin
      let node = Trace.Prof.current_node () in
      if not (Trace.Prof.is_root node) then fun () -> Trace.Prof.wrap node f else f
    end
    else f
  in
  Eventq.push t.q ~time:(max time t.now) f

let vcpu_account t ~dom ~run_ns ~wait_ns =
  let a =
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
  in
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

let pending t = Eventq.length t.q

let step t =
  if Eventq.length t.q = 0 then false
  else begin
    let time = Eventq.min_time t.q in
    if time > t.now then t.now <- time;
    let action = Eventq.take t.q in
    if Trace.enabled () then
      Trace.emit ~cat:Trace.Sched
        ~payload:[ ("pending", Trace.Int (Eventq.length t.q)) ]
        "sim.dispatch";
    if Trace.Flight.enabled () then Trace.Flight.watermark "sim.pending" (Eventq.length t.q);
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
