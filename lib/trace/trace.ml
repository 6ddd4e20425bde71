(* ---- plane registry ----

   Every in-process observability plane (the event tracer, Metrics, Prof,
   Dpath, Flight) is one entry here: its on/off flag, how to clear it,
   and how to forget a retired domain. A plane's [enabled ()] reads its
   own entry's [on] field, so the registry adds nothing to a disabled
   hot site; only the whole-process calls below walk the list. *)

type plane = { name : string; mutable on : bool; reset : unit -> unit; drop_dom : int -> unit }

let all_planes : plane list ref = ref []

let register_plane ?(drop_dom = ignore) name reset =
  let p = { name; on = false; reset; drop_dom } in
  all_planes := !all_planes @ [ p ];
  p

let planes () = List.map (fun p -> (p.name, p.on)) !all_planes
let drop_dom dom = List.iter (fun p -> p.drop_dom dom) !all_planes

let quiesce () =
  List.iter
    (fun p ->
      p.on <- false;
      p.reset ())
    !all_planes

type category =
  | Sched
  | Boot
  | Hypercall
  | Evtchn
  | Gnttab
  | Ring
  | Device
  | Net
  | User of string

let category_name = function
  | Sched -> "sched"
  | Boot -> "boot"
  | Hypercall -> "hypercall"
  | Evtchn -> "evtchn"
  | Gnttab -> "gnttab"
  | Ring -> "ring"
  | Device -> "device"
  | Net -> "net"
  | User s -> s

type value = Int of int | Float of float | String of string | Bool of bool
type payload = (string * value) list
type phase = Instant | Begin | End

type event = {
  seq : int;
  time : int;
  dom : int;
  cat : category;
  name : string;
  phase : phase;
  depth : int;
  flow : int;
  payload : payload;
}

let default_capacity = 65536

(* ---- log-linear histograms ---- *)

module Hist = struct
  (* HDR-style log-linear buckets: values below [linear] get unit-width
     buckets; each further octave [2^k, 2^(k+1)) is split into [half]
     sub-buckets of width 2^(k - sub_bits + 1). Relative quantization
     error is bounded by 1/(2*half) ~ 0.8%, independent of magnitude. *)
  let sub_bits = 7
  let linear = 1 lsl sub_bits
  let half = linear / 2

  type t = {
    mutable counts : int array;
    mutable h_count : int;
    mutable h_total : int;
    mutable h_min : int;
    mutable h_max : int;
  }

  let create () = { counts = [||]; h_count = 0; h_total = 0; h_min = max_int; h_max = 0 }

  let msb v =
    let rec go v acc = if v <= 1 then acc else go (v lsr 1) (acc + 1) in
    go v 0

  let bucket_of v =
    if v < linear then v
    else
      let k = msb v in
      let shift = k - sub_bits + 1 in
      linear + ((k - sub_bits) * half) + ((v lsr shift) - half)

  (* Inclusive bounds of bucket [i]. *)
  let bucket_lo i =
    if i < linear then i
    else
      let oct = (i - linear) / half and sub = (i - linear) mod half in
      (half + sub) lsl (oct + 1)

  let bucket_width i = if i < linear then 1 else 1 lsl (((i - linear) / half) + 1)

  let record h v =
    let v = max 0 v in
    let idx = bucket_of v in
    if idx >= Array.length h.counts then begin
      let cap = max 64 (Array.length h.counts) in
      let cap = ref cap in
      while idx >= !cap do
        cap := 2 * !cap
      done;
      let bigger = Array.make !cap 0 in
      Array.blit h.counts 0 bigger 0 (Array.length h.counts);
      h.counts <- bigger
    end;
    h.counts.(idx) <- h.counts.(idx) + 1;
    h.h_count <- h.h_count + 1;
    h.h_total <- h.h_total + v;
    if v < h.h_min then h.h_min <- v;
    if v > h.h_max then h.h_max <- v

  let count h = h.h_count
  let total h = h.h_total
  let min_ns h = if h.h_count = 0 then 0 else h.h_min
  let max_ns h = if h.h_count = 0 then 0 else h.h_max
  let mean h = if h.h_count = 0 then 0. else float_of_int h.h_total /. float_of_int h.h_count

  let merge a b =
    let m = create () in
    let cap = max (Array.length a.counts) (Array.length b.counts) in
    m.counts <- Array.make cap 0;
    Array.iteri (fun i n -> m.counts.(i) <- m.counts.(i) + n) a.counts;
    Array.iteri (fun i n -> m.counts.(i) <- m.counts.(i) + n) b.counts;
    m.h_count <- a.h_count + b.h_count;
    m.h_total <- a.h_total + b.h_total;
    m.h_min <- min a.h_min b.h_min;
    m.h_max <- max a.h_max b.h_max;
    m

  let percentile h p =
    if h.h_count = 0 then 0.
    else if p <= 0. then float_of_int h.h_min
    else if p >= 100. then float_of_int h.h_max
    else begin
      let rank = p /. 100. *. float_of_int h.h_count in
      let rank = int_of_float (ceil rank) in
      let rank = max 1 (min h.h_count rank) in
      let cum = ref 0 and res = ref (float_of_int h.h_max) and found = ref false in
      let n = Array.length h.counts in
      let i = ref 0 in
      while (not !found) && !i < n do
        let c = h.counts.(!i) in
        if c > 0 then begin
          cum := !cum + c;
          if !cum >= rank then begin
            let lo = bucket_lo !i and w = bucket_width !i in
            let mid = float_of_int lo +. (float_of_int (w - 1) /. 2.) in
            res := Float.min (Float.max mid (float_of_int h.h_min)) (float_of_int h.h_max);
            found := true
          end
        end;
        incr i
      done;
      !res
    end

  let buckets h =
    let acc = ref [] in
    Array.iteri
      (fun i c -> if c > 0 then acc := (bucket_lo i, bucket_lo i + bucket_width i - 1, c) :: !acc)
      h.counts;
    List.rev !acc
end

type counter = { c_name : string; mutable c_value : int }
type gauge = { g_name : string; mutable g_value : int }

type span_acc = {
  sa_name : string;
  sa_cat : category;
  sa_dom : int;
  sa_hist : Hist.t;
}

type span_stat = {
  span_name : string;
  span_cat : category;
  span_dom : int;
  span_count : int;
  span_total_ns : int;
  span_min_ns : int;
  span_max_ns : int;
  span_hist : Hist.t;
}

type span = {
  sp_live : bool;
  sp_name : string;
  sp_cat : category;
  sp_dom : int;
  sp_start : int;
  mutable sp_closed : bool;
}

type state = {
  mutable ring : event array;
  mutable head : int;  (* next write position *)
  mutable length : int;
  mutable dropped : int;
  mutable seq : int;
  mutable depth : int;
  mutable clock : unit -> int;
  mutable clock_base : int;
  mutable last_time : int;
  mutable cur_flow : int;
  mutable next_flow : int;
  counters : (string, counter) Hashtbl.t;
  gauges : (string, gauge) Hashtbl.t;
  spans : (string * int, span_acc) Hashtbl.t;
}

let dummy_event =
  {
    seq = 0;
    time = 0;
    dom = -1;
    cat = Sched;
    name = "";
    phase = Instant;
    depth = 0;
    flow = -1;
    payload = [];
  }

let t =
  {
    ring = [||];
    head = 0;
    length = 0;
    dropped = 0;
    seq = 0;
    depth = 0;
    clock = (fun () -> 0);
    clock_base = 0;
    last_time = 0;
    cur_flow = -1;
    next_flow = 0;
    counters = Hashtbl.create 32;
    gauges = Hashtbl.create 32;
    spans = Hashtbl.create 32;
  }

let reset () =
  Array.fill t.ring 0 (Array.length t.ring) dummy_event;
  t.head <- 0;
  t.length <- 0;
  t.dropped <- 0;
  t.seq <- 0;
  t.depth <- 0;
  t.last_time <- 0;
  t.clock_base <- 0;
  t.cur_flow <- -1;
  t.next_flow <- 0;
  Hashtbl.iter (fun _ c -> c.c_value <- 0) t.counters;
  Hashtbl.iter (fun _ g -> g.g_value <- 0) t.gauges;
  Hashtbl.reset t.spans

let tracer = register_plane "trace" reset
let enabled () = tracer.on

let enable ?(capacity = default_capacity) () =
  if capacity <= 0 then invalid_arg "Trace.enable: capacity must be positive";
  if Array.length t.ring <> capacity then begin
    t.ring <- Array.make capacity dummy_event;
    t.head <- 0;
    t.length <- 0;
    t.dropped <- 0
  end;
  tracer.on <- true

let disable () = tracer.on <- false

let set_clock f =
  (* Re-base so a fresh simulator (starting at t=0) continues the trace
     timeline monotonically instead of jumping backwards. *)
  t.clock_base <- t.last_time;
  t.clock <- f

let now () =
  let time = t.clock_base + t.clock () in
  if time > t.last_time then t.last_time <- time;
  t.last_time

let push ev =
  let cap = Array.length t.ring in
  if cap = 0 then begin
    t.ring <- Array.make default_capacity dummy_event;
    t.head <- 0;
    t.length <- 0
  end;
  let cap = Array.length t.ring in
  t.ring.(t.head) <- ev;
  t.head <- (t.head + 1) mod cap;
  if t.length < cap then t.length <- t.length + 1 else t.dropped <- t.dropped + 1

let record ?(dom = -1) ?(payload = []) ~cat ~phase name =
  let seq = t.seq in
  t.seq <- seq + 1;
  push { seq; time = now (); dom; cat; name; phase; depth = t.depth; flow = t.cur_flow; payload }

let emit ?dom ?payload ~cat name = if tracer.on then record ?dom ?payload ~cat ~phase:Instant name

let events () =
  let cap = Array.length t.ring in
  List.init t.length (fun i -> t.ring.((t.head - t.length + i + (2 * cap)) mod cap))

let dropped () = t.dropped

(* ---- flows ---- *)

module Flow = struct
  type id = int

  let none = -1
  let current () = t.cur_flow

  let start ?dom () =
    let id = t.next_flow in
    t.next_flow <- id + 1;
    let prev = t.cur_flow in
    t.cur_flow <- id;
    if tracer.on then record ?dom ~cat:Sched ~phase:Instant "flow.begin";
    t.cur_flow <- prev;
    id

  let with_flow id f =
    if id < 0 then f ()
    else begin
      let prev = t.cur_flow in
      t.cur_flow <- id;
      Fun.protect ~finally:(fun () -> t.cur_flow <- prev) f
    end

  let wrap id f =
    let prev = t.cur_flow in
    t.cur_flow <- id;
    Fun.protect ~finally:(fun () -> t.cur_flow <- prev) f
end

(* ---- counters ---- *)

let counter name =
  match Hashtbl.find_opt t.counters name with
  | Some c -> c
  | None ->
    let c = { c_name = name; c_value = 0 } in
    Hashtbl.replace t.counters name c;
    c

let add c n =
  if tracer.on && n > 0 then
    (* Saturate instead of wrapping negative on overflow. *)
    c.c_value <- (if c.c_value > max_int - n then max_int else c.c_value + n)

let incr c = add c 1
let counter_value c = c.c_value

let counters () =
  Hashtbl.fold (fun name c acc -> (name, c.c_value) :: acc) t.counters []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* ---- gauges ----

   Instantaneous values (ring occupancy, queue depth, buffered bytes):
   unlike the saturating counters they move both ways, so they get
   [set]/[add] instead of [incr]. Updates are gated on the enabled flag
   like every other hot-path hook. *)

let gauge name =
  match Hashtbl.find_opt t.gauges name with
  | Some g -> g
  | None ->
    let g = { g_name = name; g_value = 0 } in
    Hashtbl.replace t.gauges name g;
    g

let gauge_set g v = if tracer.on then g.g_value <- v
let gauge_add g d = if tracer.on then g.g_value <- g.g_value + d
let gauge_value g = g.g_value

let gauges () =
  Hashtbl.fold (fun name g acc -> (name, g.g_value) :: acc) t.gauges []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* ---- spans ---- *)

let span_acc ~cat ~dom name =
  let key = (name, dom) in
  match Hashtbl.find_opt t.spans key with
  | Some sa -> sa
  | None ->
    let sa = { sa_name = name; sa_cat = cat; sa_dom = dom; sa_hist = Hist.create () } in
    Hashtbl.replace t.spans key sa;
    sa

let span_record sa dur = Hist.record sa.sa_hist dur

let dead_span =
  { sp_live = false; sp_name = ""; sp_cat = Sched; sp_dom = -1; sp_start = 0; sp_closed = true }

let span ?(dom = -1) ?payload ~cat name =
  if not tracer.on then dead_span
  else begin
    record ~dom ?payload ~cat ~phase:Begin name;
    t.depth <- t.depth + 1;
    { sp_live = true; sp_name = name; sp_cat = cat; sp_dom = dom; sp_start = now (); sp_closed = false }
  end

let finish ?(payload = []) sp =
  if sp.sp_live && not sp.sp_closed then begin
    sp.sp_closed <- true;
    if tracer.on then begin
      let dur = max 0 (now () - sp.sp_start) in
      span_record (span_acc ~cat:sp.sp_cat ~dom:sp.sp_dom sp.sp_name) dur;
      if t.depth > 0 then t.depth <- t.depth - 1;
      record ~dom:sp.sp_dom
        ~payload:(("dur_ns", Int dur) :: payload)
        ~cat:sp.sp_cat ~phase:End sp.sp_name
    end
  end

let record_span_ns ?(dom = -1) ?(payload = []) ~cat name dur =
  if tracer.on then begin
    let dur = max 0 dur in
    span_record (span_acc ~cat ~dom name) dur;
    record ~dom ~payload:(("dur_ns", Int dur) :: payload) ~cat ~phase:End name
  end

let sample ?(dom = -1) ~cat name v =
  if tracer.on then span_record (span_acc ~cat ~dom name) (max 0 v)

let span_stats () =
  Hashtbl.fold
    (fun _ sa acc ->
      {
        span_name = sa.sa_name;
        span_cat = sa.sa_cat;
        span_dom = sa.sa_dom;
        span_count = Hist.count sa.sa_hist;
        span_total_ns = Hist.total sa.sa_hist;
        span_min_ns = Hist.min_ns sa.sa_hist;
        span_max_ns = Hist.max_ns sa.sa_hist;
        span_hist = sa.sa_hist;
      }
      :: acc)
    t.spans []
  |> List.sort (fun a b -> compare (a.span_name, a.span_dom) (b.span_name, b.span_dom))

(* ---- export ---- *)

let json_escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let value_to_json = function
  | Int i -> string_of_int i
  | Float f -> Printf.sprintf "%.17g" f
  | String s -> "\"" ^ json_escape s ^ "\""
  | Bool b -> string_of_bool b

let payload_to_json payload =
  "{"
  ^ String.concat "," (List.map (fun (k, v) -> "\"" ^ json_escape k ^ "\":" ^ value_to_json v) payload)
  ^ "}"

let phase_letter = function Instant -> "I" | Begin -> "B" | End -> "E"

let to_json_line (ev : event) =
  Printf.sprintf
    "{\"seq\":%d,\"t\":%d,\"dom\":%d,\"cat\":\"%s\",\"name\":\"%s\",\"ph\":\"%s\",\"depth\":%d,\"flow\":%d,\"args\":%s}"
    ev.seq ev.time ev.dom
    (json_escape (category_name ev.cat))
    (json_escape ev.name) (phase_letter ev.phase) ev.depth ev.flow (payload_to_json ev.payload)

let export_jsonl oc =
  List.iter
    (fun ev ->
      output_string oc (to_json_line ev);
      output_char oc '\n')
    (events ());
  List.iter
    (fun (name, v) -> Printf.fprintf oc "{\"counter\":\"%s\",\"value\":%d}\n" (json_escape name) v)
    (counters ());
  List.iter
    (fun (name, v) -> Printf.fprintf oc "{\"gauge\":\"%s\",\"value\":%d}\n" (json_escape name) v)
    (gauges ());
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"span\":\"%s\",\"cat\":\"%s\",\"dom\":%d,\"count\":%d,\"total_ns\":%d,\"min_ns\":%d,\"max_ns\":%d,\"p50_ns\":%.1f,\"p95_ns\":%.1f,\"p99_ns\":%.1f}\n"
        (json_escape s.span_name)
        (json_escape (category_name s.span_cat))
        s.span_dom s.span_count s.span_total_ns s.span_min_ns s.span_max_ns
        (Hist.percentile s.span_hist 50.) (Hist.percentile s.span_hist 95.)
        (Hist.percentile s.span_hist 99.))
    (span_stats ())

(* ---- per-domain metrics registry ----

   The in-band monitoring plane: subsystems register named counters,
   gauges and histogram-backed summaries per domain; an exposition
   handler (Uhttp.Metrics_export) renders a domain's snapshot as
   Prometheus-style text over the simulated network, and the Monitor
   appliance scrapes it. Orthogonal to the event tracer above: tracing
   can be off while the monitoring plane is on, and vice versa.

   Cost discipline: with the registry disabled (the default) an update
   site is one load and one predictable branch — `bench guard` pins
   that cost. Pull-based metrics ([register_read]) cost
   nothing at the update site at all: the callback reads state the
   subsystem already maintains, evaluated only at snapshot time. *)

module Metrics = struct
  type kind = Counter | Gauge | Summary

  type metric = {
    m_name : string;
    m_dom : int;
    m_kind : kind;
    mutable m_value : int;
    m_read : (unit -> int) option;
    m_hist : Hist.t option;
  }

  type sample = {
    s_name : string;
    s_dom : int;
    s_kind : kind;
    s_value : int;  (* counter/gauge value; observation count for summaries *)
    s_sum : int;  (* summaries only: total of observations *)
    s_quantiles : (float * float) list;  (* summaries only: (q, value) *)
  }

  let quantiles = [ 0.5; 0.9; 0.99 ]
  let registry : (string * int, metric) Hashtbl.t = Hashtbl.create 64
  let reset () = Hashtbl.reset registry

  (* Domain teardown drops every series the domain registered, so read
     callbacks (which capture device and stack state) do not pin a
     destroyed domain's world. Cost is one pass over the registry, which
     holds live domains' series only, precisely because destroy calls
     this. *)
  let drop_dom dom =
    let doomed =
      Hashtbl.fold (fun ((_, d) as k) _ acc -> if d = dom then k :: acc else acc) registry []
    in
    List.iter (Hashtbl.remove registry) doomed

  let plane = register_plane ~drop_dom "metrics" reset
  let enabled () = plane.on
  let enable () = plane.on <- true
  let disable () = plane.on <- false

  (* Registration is itself gated: with the plane off, subsystem create
     paths leave no trace in the registry, so successive disabled runs in
     one process cannot accumulate stale read callbacks. The returned
     metric is then detached — updates to it are no-ops. *)
  let register ?(dom = -1) ~kind ?read ?hist name =
    let m = { m_name = name; m_dom = dom; m_kind = kind; m_value = 0; m_read = read; m_hist = hist } in
    if plane.on then Hashtbl.replace registry (name, dom) m;
    m

  let counter ?dom name = register ?dom ~kind:Counter name
  let gauge ?dom name = register ?dom ~kind:Gauge name
  let summary ?dom name = register ?dom ~kind:Summary ~hist:(Hist.create ()) name
  let register_read ?dom ~kind name read = ignore (register ?dom ~kind ~read name)

  (* A metric attached to nothing: every update is a no-op. Lets a
     subsystem keep one unconditional update site while opting out of
     registration (e.g. the exposition server's own internal Uhttp). *)
  let detached =
    { m_name = ""; m_dom = -1; m_kind = Counter; m_value = 0; m_read = None; m_hist = None }

  let inc m n =
    if plane.on && n > 0 then
      m.m_value <- (if m.m_value > max_int - n then max_int else m.m_value + n)

  let set m v = if plane.on then m.m_value <- v
  let add m d = if plane.on then m.m_value <- m.m_value + d

  let observe m v =
    if plane.on then match m.m_hist with Some h -> Hist.record h (max 0 v) | None -> ()

  let value m = match m.m_read with Some f -> f () | None -> m.m_value

  let sample_of m =
    match m.m_hist with
    | Some h ->
      {
        s_name = m.m_name;
        s_dom = m.m_dom;
        s_kind = m.m_kind;
        s_value = Hist.count h;
        s_sum = Hist.total h;
        s_quantiles = List.map (fun q -> (q, Hist.percentile h (q *. 100.))) quantiles;
      }
    | None ->
      { s_name = m.m_name; s_dom = m.m_dom; s_kind = m.m_kind; s_value = value m; s_sum = 0;
        s_quantiles = [] }

  let snapshot ?dom () =
    Hashtbl.fold
      (fun (_, d) m acc ->
        match dom with Some want when d <> want -> acc | _ -> sample_of m :: acc)
      registry []
    |> List.sort (fun a b -> compare (a.s_name, a.s_dom) (b.s_name, b.s_dom))

  (* ---- Prometheus-style text exposition ---- *)

  let sanitize name =
    String.map (function ('a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_') as c -> c | _ -> '_') name

  let kind_name = function Counter -> "counter" | Gauge -> "gauge" | Summary -> "summary"

  let to_text ?dom () =
    let b = Buffer.create 1024 in
    List.iter
      (fun s ->
        let n = sanitize s.s_name in
        let lbl = if s.s_dom < 0 then "" else Printf.sprintf "{dom=\"%d\"}" s.s_dom in
        Buffer.add_string b (Printf.sprintf "# TYPE %s %s\n" n (kind_name s.s_kind));
        match s.s_kind with
        | Counter | Gauge -> Buffer.add_string b (Printf.sprintf "%s%s %d\n" n lbl s.s_value)
        | Summary ->
          List.iter
            (fun (q, v) ->
              let ql =
                if s.s_dom < 0 then Printf.sprintf "{quantile=\"%g\"}" q
                else Printf.sprintf "{dom=\"%d\",quantile=\"%g\"}" s.s_dom q
              in
              Buffer.add_string b (Printf.sprintf "%s%s %.1f\n" n ql v))
            s.s_quantiles;
          Buffer.add_string b (Printf.sprintf "%s_sum%s %d\n" n lbl s.s_sum);
          Buffer.add_string b (Printf.sprintf "%s_count%s %d\n" n lbl s.s_value))
      (snapshot ?dom ());
    Buffer.contents b
end

(* ---- continuous virtual-time profiler ----

   Attributes vCPU time to ambient layer frames. Frames form a tree
   interned at push time (one hashtable probe per push; the folded-stack
   string is built once per distinct stack, never on the hot path), and
   the current position is a single mutable pointer — capturing the
   ambient stack for a deferred callback is one load, exactly like flow
   ids. Because time is virtual and vCPU charges are discrete, every
   charge event is a sample tick whose weight is the charged duration:
   the profile is an exact, complete attribution of every vCPU
   nanosecond, not a statistical estimate — simulation makes the
   continuous profiler free of sampling error. *)

module Prof = struct
  type node = {
    n_name : string;
    n_parent : node option;
    n_folded : string;  (* "engine;netif;ip;tcp" *)
    n_children : (string, node) Hashtbl.t;
    n_accs : (int, acc) Hashtbl.t;  (* dom -> accumulator *)
  }

  and acc = { mutable a_run_ns : int; mutable a_wait_ns : int; mutable a_samples : int }

  type stat = {
    p_dom : int;
    p_stack : string;
    p_run_ns : int;
    p_wait_ns : int;
    p_samples : int;
  }

  let make_root () =
    {
      n_name = "engine";
      n_parent = None;
      n_folded = "engine";
      n_children = Hashtbl.create 8;
      n_accs = Hashtbl.create 8;
    }

  let root = ref (make_root ())
  let cur = ref !root

  let reset () =
    root := make_root ();
    cur := !root

  (* Domain teardown: retired domains leave no stale series behind. *)
  let drop_dom dom =
    let rec go n =
      Hashtbl.remove n.n_accs dom;
      Hashtbl.iter (fun _ c -> go c) n.n_children
    in
    go !root

  let plane = register_plane ~drop_dom "prof" reset
  let enabled () = plane.on
  let enable () = plane.on <- true
  let disable () = plane.on <- false

  let current_node () = !cur
  let is_root n = n.n_parent = None

  (* Re-entering a layer that is already on the ambient stack pops back
     to that frame instead of nesting: the stack chains across deferred
     continuations (each packet's callbacks inherit the stack of the
     code that scheduled them), so without the pop a ping-pong between
     two layers would grow one node chain per packet —
     engine;tcp;netif;netif;... at depth 10^4 after 10^4 packets. With
     it, depth is bounded by the number of distinct layer names. *)
  let rec ancestor_named name n =
    if n.n_name = name then Some n
    else match n.n_parent with Some p -> ancestor_named name p | None -> None

  let enter name =
    let parent = !cur in
    match ancestor_named name parent with
    | Some n -> cur := n
    | None ->
      let child =
        match Hashtbl.find_opt parent.n_children name with
        | Some c -> c
        | None ->
          let c =
            {
              n_name = name;
              n_parent = Some parent;
              n_folded = parent.n_folded ^ ";" ^ name;
              n_children = Hashtbl.create 4;
              n_accs = Hashtbl.create 4;
            }
          in
          Hashtbl.replace parent.n_children name c;
          c
      in
      cur := child

  let with_frame name f =
    if not plane.on then f ()
    else begin
      let prev = !cur in
      enter name;
      Fun.protect ~finally:(fun () -> cur := prev) f
    end

  let wrap node f =
    let prev = !cur in
    cur := node;
    Fun.protect ~finally:(fun () -> cur := prev) f

  let account ?(dom = -1) ?(wait_ns = 0) run_ns =
    if plane.on then begin
      let node = !cur in
      let a =
        match Hashtbl.find_opt node.n_accs dom with
        | Some a -> a
        | None ->
          let a = { a_run_ns = 0; a_wait_ns = 0; a_samples = 0 } in
          Hashtbl.replace node.n_accs dom a;
          a
      in
      a.a_run_ns <- a.a_run_ns + max 0 run_ns;
      a.a_wait_ns <- a.a_wait_ns + max 0 wait_ns;
      a.a_samples <- a.a_samples + 1
    end

  let stats () =
    let acc = ref [] in
    let rec go n =
      Hashtbl.iter
        (fun dom a ->
          if a.a_samples > 0 then
            acc :=
              {
                p_dom = dom;
                p_stack = n.n_folded;
                p_run_ns = a.a_run_ns;
                p_wait_ns = a.a_wait_ns;
                p_samples = a.a_samples;
              }
              :: !acc)
        n.n_accs;
      Hashtbl.iter (fun _ c -> go c) n.n_children
    in
    go !root;
    List.sort (fun a b -> compare (a.p_stack, a.p_dom) (b.p_stack, b.p_dom)) !acc
end

(* ---- per-packet datapath cost accounting ----

   A fixed set of hops along the RX→app→TX path, each accumulating
   packet count, modeled vCPU ns, and bytes allocated. Allocation is
   measured with [Gc.allocated_bytes] deltas over a region stack, so
   nested hops report exclusive (self) allocation: a parent region
   subtracts everything consumed by regions opened inside it. *)

module Dpath = struct
  type hop = Ring_slot | Netfront | Ip | Tcp | Deliver | App

  let all_hops = [ Ring_slot; Netfront; Ip; Tcp; Deliver; App ]

  let hop_name = function
    | Ring_slot -> "ring"
    | Netfront -> "netfront"
    | Ip -> "ip"
    | Tcp -> "tcp"
    | Deliver -> "deliver"
    | App -> "app"

  let hop_index = function
    | Ring_slot -> 0
    | Netfront -> 1
    | Ip -> 2
    | Tcp -> 3
    | Deliver -> 4
    | App -> 5

  let n_hops = 6

  type hstat = { h_hop : hop; h_pkts : int; h_vcpu_ns : int; h_alloc_b : float }
  type cell = { mutable pkts : int; mutable vcpu_ns : int; mutable alloc_b : float }

  let cells = Array.init n_hops (fun _ -> { pkts = 0; vcpu_ns = 0; alloc_b = 0. })

  (* The region stack is flat, preallocated, and float-unboxed so that
     measuring does not itself allocate inside measured regions: a
     cons/record/boxed-float per region would charge the instrument's own
     garbage to whichever hop encloses it (tens of thousands of regions
     per run add megabytes). [Gc.allocated_bytes]'s boxed return is the
     only unavoidable residue. Depth 64 is far beyond any real nesting;
     deeper regions saturate and measure as zero rather than crash. *)
  let max_depth = 64
  let depth = ref 0
  let r_idx = Array.make max_depth 0
  let r_start = Array.make max_depth 0.
  let r_inner = Array.make max_depth 0.

  let reset () =
    Array.iter
      (fun c ->
        c.pkts <- 0;
        c.vcpu_ns <- 0;
        c.alloc_b <- 0.)
      cells;
    depth := 0

  let plane = register_plane "dpath" reset
  let enabled () = plane.on

  (* Datapath totals double as pull metrics on the monitoring plane when
     both are enabled: zero update-site cost, read at snapshot time. *)
  let register_metrics () =
    List.iter
      (fun h ->
        let i = hop_index h in
        let nm = "dpath_" ^ hop_name h in
        Metrics.register_read ~kind:Metrics.Counter (nm ^ "_pkts_total") (fun () -> cells.(i).pkts);
        Metrics.register_read ~kind:Metrics.Counter (nm ^ "_vcpu_ns_total") (fun () ->
            cells.(i).vcpu_ns);
        Metrics.register_read ~kind:Metrics.Counter (nm ^ "_alloc_bytes_total") (fun () ->
            int_of_float cells.(i).alloc_b))
      all_hops

  let enable () =
    plane.on <- true;
    if Metrics.enabled () then register_metrics ()

  let disable () = plane.on <- false

  (* OCaml 5.0/5.1's [Gc.allocated_bytes] folds the live minor-heap
     region into its result only around collection boundaries, so between
     minor collections the counter barely moves — and a whole epoch's
     allocation then lands as one minor-heap-sized lump on whichever
     region happens to span the collection. That made per-hop attribution
     a knife-edge on GC phase: an 8-byte/frame change anywhere in the
     program could swing a hop's exclusive bytes by megabytes. Draining
     the minor heap right before sampling makes the counter exact at
     every region edge (~0.4us, and only while the plane is enabled), so
     attribution depends on what a hop allocates, not on where the GC
     clock was. *)
  let sample () =
    Gc.minor ();
    Gc.allocated_bytes ()

  let enter hop =
    let d = !depth in
    if d < max_depth then begin
      r_idx.(d) <- hop_index hop;
      r_inner.(d) <- 0.;
      r_start.(d) <- sample ()
    end;
    depth := d + 1

  let leave ?(pkts = 1) ~vcpu_ns () =
    let d = !depth - 1 in
    depth := d;
    if d >= 0 && d < max_depth then begin
      let total = sample () -. r_start.(d) in
      let self = if total > r_inner.(d) then total -. r_inner.(d) else 0. in
      if d > 0 then r_inner.(d - 1) <- r_inner.(d - 1) +. total;
      let c = cells.(r_idx.(d)) in
      c.pkts <- c.pkts + pkts;
      c.vcpu_ns <- c.vcpu_ns + vcpu_ns;
      c.alloc_b <- c.alloc_b +. self
    end

  let measure hop ?(pkts = 1) ~vcpu_ns f =
    if not plane.on then f ()
    else begin
      enter hop;
      match f () with
      | v ->
        leave ~pkts ~vcpu_ns ();
        v
      | exception e ->
        leave ~pkts ~vcpu_ns ();
        raise e
    end

  let stats () =
    List.filter_map
      (fun h ->
        let c = cells.(hop_index h) in
        if c.pkts = 0 then None
        else Some { h_hop = h; h_pkts = c.pkts; h_vcpu_ns = c.vcpu_ns; h_alloc_b = c.alloc_b })
      all_hops
end

(* ---- profile export (profiler + datapath tables as JSON lines) ---- *)

let add_profile_lines b =
  List.iter
    (fun (s : Prof.stat) ->
      Buffer.add_string b
        (Printf.sprintf
           "{\"prof\":{\"dom\":%d,\"stack\":\"%s\",\"run_ns\":%d,\"wait_ns\":%d,\"samples\":%d}}\n"
           s.Prof.p_dom (json_escape s.Prof.p_stack) s.Prof.p_run_ns s.Prof.p_wait_ns
           s.Prof.p_samples))
    (Prof.stats ());
  List.iter
    (fun (h : Dpath.hstat) ->
      Buffer.add_string b
        (Printf.sprintf
           "{\"dpath\":{\"hop\":\"%s\",\"pkts\":%d,\"vcpu_ns\":%d,\"alloc_bytes\":%.0f}}\n"
           (Dpath.hop_name h.Dpath.h_hop)
           h.Dpath.h_pkts h.Dpath.h_vcpu_ns h.Dpath.h_alloc_b))
    (Dpath.stats ())

let export_profile_jsonl oc =
  output_string oc "{\"profile\":\"v1\"}\n";
  let b = Buffer.create 4096 in
  add_profile_lines b;
  output_string oc (Buffer.contents b)

(* ---- flight recorder ----

   The black box: a bounded per-domain ring of recent notes (retransmits,
   probes, drops, state changes) plus named high-watermarks, kept even
   when full tracing is off. On a failure signal — TCP flow give-up,
   monitor alert firing, nonzero domain exit — [trip] freezes a
   postmortem bundle: the tripping domain's recent notes, watermarks,
   the per-layer profile and datapath cost tables (when those planes are
   on), and a metrics snapshot. Bundles are retained in memory (bounded)
   and optionally written to a directory as JSONL. *)

module Flight = struct
  type fev = { fe_t : int; fe_dom : int; fe_cat : category; fe_name : string; fe_payload : payload }
  type ring = { buf : fev array; mutable len : int; mutable head : int }

  let default_capacity = 256
  let max_bundles = 8

  type fstate = {
    mutable f_cap : int;
    mutable f_dir : string option;
    rings : (int, ring) Hashtbl.t;
    marks : (string, int ref) Hashtbl.t;
    mutable f_trips : int;
    mutable f_bundles : (string * string) list;  (* newest first, bounded *)
    mutable f_seq : int;
  }

  let fs =
    {
      f_cap = default_capacity;
      f_dir = None;
      rings = Hashtbl.create 8;
      marks = Hashtbl.create 8;
      f_trips = 0;
      f_bundles = [];
      f_seq = 0;
    }

  let reset () =
    Hashtbl.reset fs.rings;
    Hashtbl.reset fs.marks;
    fs.f_trips <- 0;
    fs.f_bundles <- [];
    fs.f_seq <- 0;
    fs.f_dir <- None

  (* Domain teardown drops the retired domain's ring (postmortem-on-exit
     trips before this runs, so a crash bundle still sees the ring). *)
  let plane = register_plane ~drop_dom:(Hashtbl.remove fs.rings) "flight" reset
  let enabled () = plane.on

  let enable ?(capacity = default_capacity) ?dir () =
    if capacity <= 0 then invalid_arg "Trace.Flight.enable: capacity must be positive";
    fs.f_cap <- capacity;
    (match dir with Some _ -> fs.f_dir <- dir | None -> ());
    plane.on <- true

  let disable () = plane.on <- false

  let dummy_fev = { fe_t = 0; fe_dom = -1; fe_cat = Sched; fe_name = ""; fe_payload = [] }

  let ring_of dom =
    match Hashtbl.find_opt fs.rings dom with
    | Some r -> r
    | None ->
      let r = { buf = Array.make fs.f_cap dummy_fev; len = 0; head = 0 } in
      Hashtbl.replace fs.rings dom r;
      r

  let note ?(dom = -1) ?(payload = []) ~cat name =
    if plane.on then begin
      let r = ring_of dom in
      r.buf.(r.head) <-
        { fe_t = now (); fe_dom = dom; fe_cat = cat; fe_name = name; fe_payload = payload };
      r.head <- (r.head + 1) mod Array.length r.buf;
      if r.len < Array.length r.buf then r.len <- r.len + 1
    end

  let watermark name v =
    if plane.on then
      match Hashtbl.find_opt fs.marks name with
      | Some m -> if v > !m then m := v
      | None -> Hashtbl.replace fs.marks name (ref v)

  let recent dom =
    match Hashtbl.find_opt fs.rings dom with
    | None -> []
    | Some r ->
      let cap = Array.length r.buf in
      List.init r.len (fun i -> r.buf.((r.head - r.len + i + (2 * cap)) mod cap))

  let watermarks () =
    Hashtbl.fold (fun name m acc -> (name, !m) :: acc) fs.marks []
    |> List.sort (fun (a, _) (b, _) -> compare a b)

  let fev_to_json fe =
    Printf.sprintf "{\"t\":%d,\"dom\":%d,\"cat\":\"%s\",\"name\":\"%s\",\"args\":%s}" fe.fe_t
      fe.fe_dom
      (json_escape (category_name fe.fe_cat))
      (json_escape fe.fe_name) (payload_to_json fe.fe_payload)

  let sanitize_reason s =
    String.map (function ('a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_') as c -> c | _ -> '.') s

  let rec take n = function [] -> [] | x :: tl -> if n <= 0 then [] else x :: take (n - 1) tl

  (* Wire-capture hook, installed by the capture plane (Netsim.Capture)
     from above this layer: given the trip's context it returns extra
     bundle lines — the last few captured frames of the implicated flow —
     or "" when nothing is captured. *)
  let capture_hook : (dom:int -> reason:string -> payload:payload -> string) option ref = ref None
  let set_capture_hook h = capture_hook := h

  let build_bundle ~dom ~reason ~payload =
    let b = Buffer.create 4096 in
    Buffer.add_string b
      (Printf.sprintf "{\"flight\":\"postmortem\",\"seq\":%d,\"reason\":\"%s\",\"dom\":%d,\"t\":%d,\"args\":%s}\n"
         fs.f_seq (json_escape reason) dom (now ()) (payload_to_json payload));
    let evs = if dom >= 0 then recent (-1) @ recent dom else recent (-1) in
    List.iter
      (fun fe ->
        Buffer.add_string b (fev_to_json fe);
        Buffer.add_char b '\n')
      (List.sort (fun a b -> compare (a.fe_t, a.fe_dom) (b.fe_t, b.fe_dom)) evs);
    List.iter
      (fun (name, v) ->
        Buffer.add_string b (Printf.sprintf "{\"watermark\":\"%s\",\"max\":%d}\n" (json_escape name) v))
      (watermarks ());
    add_profile_lines b;
    if Metrics.enabled () then begin
      let samples =
        if dom >= 0 then Metrics.snapshot ~dom:(-1) () @ Metrics.snapshot ~dom ()
        else Metrics.snapshot ()
      in
      List.iter
        (fun (s : Metrics.sample) ->
          Buffer.add_string b
            (Printf.sprintf "{\"metric\":\"%s\",\"dom\":%d,\"value\":%d,\"sum\":%d}\n"
               (json_escape s.Metrics.s_name) s.Metrics.s_dom s.Metrics.s_value s.Metrics.s_sum))
        samples
    end;
    (match !capture_hook with
    | None -> ()
    | Some h ->
      let s = h ~dom ~reason ~payload in
      if s <> "" then Buffer.add_string b s);
    Buffer.contents b

  let trip ?(dom = -1) ?(payload = []) ~reason () =
    if plane.on then begin
      fs.f_seq <- fs.f_seq + 1;
      fs.f_trips <- fs.f_trips + 1;
      let name = Printf.sprintf "flight-%04d-%s.jsonl" fs.f_seq (sanitize_reason reason) in
      let contents = build_bundle ~dom ~reason ~payload in
      fs.f_bundles <- take max_bundles ((name, contents) :: fs.f_bundles);
      (match fs.f_dir with
      | Some dir -> (
        try
          let oc = open_out (Filename.concat dir name) in
          output_string oc contents;
          close_out oc
        with Sys_error _ -> ())
      | None -> ());
      if tracer.on then
        record ~dom
          ~payload:(("reason", String reason) :: payload)
          ~cat:(User "flight") ~phase:Instant "flight.trip"
    end

  let trips () = fs.f_trips
  let bundles () = List.rev fs.f_bundles
  let last_bundle () = match fs.f_bundles with [] -> None | hd :: _ -> Some hd
end
