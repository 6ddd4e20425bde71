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

(* ---- plane registry ----

   Every observability plane is one entry here: whether it is on, how to
   turn it off and empty it, how to forget a retired domain, and the
   lines it adds to a postmortem bundle. The in-process planes (the event
   tracer, Metrics, Prof, Flight) each keep a [switch] that their
   [enabled ()] reads, so the registry adds nothing to a disabled hot
   site; the wire capture joins from above through [register_plane].
   Only the whole-process calls below walk the list. *)

type switch = { mutable on : bool }

type plane = {
  name : string;
  is_on : unit -> bool;
  reset : unit -> unit;  (* off, and empty *)
  drop_dom : int -> unit;
  section : dom:int -> payload:payload -> Buffer.t -> unit;  (* bundle lines *)
}

let all_planes : plane list ref = ref []

let add_plane ?(drop_dom = ignore) ?(section = fun ~dom:_ ~payload:_ _ -> ()) name ~on ~reset =
  all_planes := !all_planes @ [ { name; is_on = on; reset; drop_dom; section } ]

let register_plane name ~on ~reset ~section = add_plane ~section name ~on ~reset

let switch_plane ?drop_dom ?section name sw reset =
  add_plane ?drop_dom ?section name
    ~on:(fun () -> sw.on)
    ~reset:(fun () ->
      sw.on <- false;
      reset ())

let planes () = List.map (fun p -> (p.name, p.is_on ())) !all_planes
let drop_dom dom = List.iter (fun p -> p.drop_dom dom) !all_planes
let quiesce () = List.iter (fun p -> p.reset ()) !all_planes

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

  (* Percentile of the union of [hs], without merging them: the
     bucket-midpoint estimate at that rank, clamped to the exact
     min/max. *)
  let percentile_of hs p =
    let count = ref 0 and h_min = ref max_int and h_max = ref 0 and n = ref 0 in
    Array.iter
      (fun h ->
        count := !count + h.h_count;
        h_min := min !h_min h.h_min;
        h_max := max !h_max h.h_max;
        n := max !n (Array.length h.counts))
      hs;
    if !count = 0 then 0.
    else if p <= 0. then float_of_int !h_min
    else if p >= 100. then float_of_int !h_max
    else begin
      let rank = p /. 100. *. float_of_int !count in
      let rank = max 1 (min !count (int_of_float (ceil rank))) in
      let cum = ref 0 and i = ref 0 in
      while !cum < rank && !i < !n do
        for j = 0 to Array.length hs - 1 do
          let c = hs.(j).counts in
          if !i < Array.length c then cum := !cum + c.(!i)
        done;
        incr i
      done;
      let b = !i - 1 in
      let mid = float_of_int (bucket_lo b) +. (float_of_int (bucket_width b - 1) /. 2.) in
      Float.min (Float.max mid (float_of_int !h_min)) (float_of_int !h_max)
    end

  let percentile h p = percentile_of [| h |] p

  let buckets h =
    let acc = ref [] in
    Array.iteri
      (fun i c -> if c > 0 then acc := (bucket_lo i, bucket_lo i + bucket_width i - 1, c) :: !acc)
      h.counts;
    List.rev !acc

  (* One histogram per [slot_ns] time slot, indexed by slot number mod
     [slots]; [epochs.(i)] is the slot number [hists.(i)] holds, so a
     record landing on a stale entry clears it first (in place: a fresh
     histogram would regrow its bucket array every slot). *)
  module Window = struct
    let slots = 8

    type nonrec t = { slot_ns : int; hists : t array; epochs : int array }

    let create ~window_ns =
      if window_ns < slots then invalid_arg "Hist.Window.create: window_ns below the slot count";
      {
        slot_ns = window_ns / slots;
        hists = Array.init slots (fun _ -> create ());
        epochs = Array.make slots min_int;
      }

    let record w ~now v =
      let e = now / w.slot_ns in
      let i = e mod slots in
      let h = w.hists.(i) in
      if w.epochs.(i) <> e then begin
        Array.fill h.counts 0 (Array.length h.counts) 0;
        h.h_count <- 0;
        h.h_total <- 0;
        h.h_min <- max_int;
        h.h_max <- 0;
        w.epochs.(i) <- e
      end;
      record h v

    let percentile w ~now p =
      let oldest = (now / w.slot_ns) - slots + 1 in
      let live = List.filteri (fun i _ -> w.epochs.(i) >= oldest) (Array.to_list w.hists) in
      percentile_of (Array.of_list live) p
  end
end

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
  counts : (string, int ref) Hashtbl.t;  (* instant events per name, exact past ring wrap *)
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
    counts = Hashtbl.create 32;
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
  Hashtbl.reset t.counts;
  Hashtbl.reset t.spans

let tracer = { on = false }
let () = switch_plane "trace" tracer reset
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
  if phase = Instant then begin
    match Hashtbl.find t.counts name with
    | n -> incr n
    | exception Not_found -> Hashtbl.add t.counts name (ref 1)
  end;
  let seq = t.seq in
  t.seq <- seq + 1;
  push { seq; time = now (); dom; cat; name; phase; depth = t.depth; flow = t.cur_flow; payload }

let emit ?dom ?payload ~cat name = if tracer.on then record ?dom ?payload ~cat ~phase:Instant name

let events () =
  let cap = Array.length t.ring in
  List.init t.length (fun i -> t.ring.((t.head - t.length + i + (2 * cap)) mod cap))

let dropped () = t.dropped

let counts () =
  Hashtbl.fold (fun name n acc -> (name, !n) :: acc) t.counts []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

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

  (* Put [prev] back however [f] ends, without the closure a
     [Fun.protect ~finally] would allocate per call. *)
  let restoring prev f =
    match f () with
    | v ->
      t.cur_flow <- prev;
      v
    | exception e ->
      t.cur_flow <- prev;
      raise e

  let with_flow id f =
    if id < 0 then f ()
    else begin
      let prev = t.cur_flow in
      t.cur_flow <- id;
      restoring prev f
    end

  let wrap id f =
    let prev = t.cur_flow in
    t.cur_flow <- id;
    restoring prev f
end

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
    (counts ());
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

   Pull only: a series reads state its owner already keeps (an int for
   a counter or a gauge, a [Hist.t] for a summary), evaluated only at
   snapshot time, so the registry adds nothing to any update site. *)

module Metrics = struct
  type kind = Counter | Gauge | Summary
  type series = Read of kind * (unit -> int) | Dist of Hist.t

  type sample = {
    s_name : string;
    s_dom : int;
    s_kind : kind;
    s_value : int;  (* counter/gauge value; observation count for summaries *)
    s_sum : int;  (* summaries only: total of observations *)
    s_quantiles : (float * float) list;  (* summaries only: (q, value) *)
  }

  let quantiles = [ 0.5; 0.9; 0.99 ]
  let registry : (string * int, series) Hashtbl.t = Hashtbl.create 64
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

  let plane = { on = false }
  let enabled () = plane.on
  let enable () = plane.on <- true
  let disable () = plane.on <- false

  (* Registration is itself gated: with the plane off, subsystem create
     paths leave no trace in the registry, so successive disabled runs in
     one process cannot accumulate stale read callbacks. *)
  let register ?(dom = -1) name series =
    if plane.on then Hashtbl.replace registry (name, dom) series

  let register_read ?dom ~kind name read = register ?dom name (Read (kind, read))
  let register_summary ?dom name h = register ?dom name (Dist h)

  let sample_of (name, dom) = function
    | Dist h ->
      {
        s_name = name;
        s_dom = dom;
        s_kind = Summary;
        s_value = Hist.count h;
        s_sum = Hist.total h;
        s_quantiles = List.map (fun q -> (q, Hist.percentile h (q *. 100.))) quantiles;
      }
    | Read (kind, read) ->
      { s_name = name; s_dom = dom; s_kind = kind; s_value = read (); s_sum = 0; s_quantiles = [] }

  let snapshot ?dom () =
    Hashtbl.fold
      (fun ((_, d) as key) series acc ->
        match dom with Some want when d <> want -> acc | _ -> sample_of key series :: acc)
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

  (* Bundle lines: the unattributed series and the tripping domain's. *)
  let section ~dom ~payload:_ b =
    let samples = if dom >= 0 then snapshot ~dom:(-1) () @ snapshot ~dom () else snapshot () in
    List.iter
      (fun s ->
        Printf.bprintf b "{\"metric\":\"%s\",\"dom\":%d,\"value\":%d,\"sum\":%d}\n"
          (json_escape s.s_name) s.s_dom s.s_value s.s_sum)
      samples

  let () = switch_plane ~drop_dom ~section "metrics" plane reset
end

(* ---- continuous virtual-time profiler ----

   Attributes cost to ambient layer frames. Frames form a tree interned
   at push time (one hashtable probe per push; the folded-stack string is
   built once per distinct stack, never on the hot path), and the
   current position is a single mutable pointer — capturing the ambient
   stack for a deferred callback is one load, exactly like flow ids.
   Because time is virtual and vCPU charges are discrete, every charge
   event is a sample tick whose weight is the charged duration: the
   profile is an exact, complete attribution of every vCPU nanosecond,
   not a statistical estimate — simulation makes the continuous profiler
   free of sampling error.

   The packet path's hops are frames too. [hop] enters the hop's frame
   and also counts there one packet, the vCPU ns its caller declares,
   and the bytes allocated inside it minus those allocated inside the
   hops nested in it (exclusive allocation). *)

module Prof = struct
  type hop = Ring_slot | Netfront | Ip | Tcp | Deliver | App

  let all_hops = [ Ring_slot; Netfront; Ip; Tcp; Deliver; App ]

  let hop_name = function
    | Ring_slot -> "ring"
    | Netfront -> "netfront"
    | Ip -> "ip"
    | Tcp -> "tcp"
    | Deliver -> "deliver"
    | App -> "app"

  type node = {
    n_name : string;
    n_parent : node option;
    n_folded : string;  (* "engine;netif;ip;tcp" *)
    n_children : (string, node) Hashtbl.t;
    n_accs : (int, acc) Hashtbl.t;  (* dom -> accumulator *)
    mutable n_pkts : int;  (* [hop] calls on this frame *)
    mutable n_vcpu_ns : int;  (* declared by those calls, not charged *)
    mutable n_alloc_b : int;  (* exclusive bytes allocated inside them *)
  }

  and acc = { mutable a_run_ns : int; mutable a_wait_ns : int; mutable a_samples : int }

  type stat = {
    p_dom : int;
    p_stack : string;
    p_run_ns : int;
    p_wait_ns : int;
    p_samples : int;
  }

  type hop_stat = { h_hop : hop; h_pkts : int; h_vcpu_ns : int; h_alloc_b : float }

  let make_node name parent folded =
    {
      n_name = name;
      n_parent = parent;
      n_folded = folded;
      n_children = Hashtbl.create 4;
      n_accs = Hashtbl.create 4;
      n_pkts = 0;
      n_vcpu_ns = 0;
      n_alloc_b = 0;
    }

  let root = make_node "engine" None "engine"
  let cur = ref root

  (* Bytes allocated inside the hops nested in the innermost open [hop]
     so far. A float-only record is stored flat, so updating it inside a
     measured region allocates nothing. *)
  type region = { mutable inner : float }

  let region = { inner = 0. }

  (* [f] folded over every node of the tree, parents first. *)
  let rec fold f acc n = Hashtbl.fold (fun _ c acc -> fold f acc c) n.n_children (f acc n)

  (* Zero in place: callbacks still pending in the scheduler hold nodes
     of this tree and re-install them when they run, so a fresh tree
     would orphan every charge they make after the reset. *)
  let reset () =
    fold
      (fun () n ->
        Hashtbl.reset n.n_accs;
        n.n_pkts <- 0;
        n.n_vcpu_ns <- 0;
        n.n_alloc_b <- 0)
      () root;
    cur := root;
    region.inner <- 0.

  (* Domain teardown: retired domains leave no stale series behind. *)
  let drop_dom dom = fold (fun () n -> Hashtbl.remove n.n_accs dom) () root

  let plane = { on = false }
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
     it, depth is bounded by the number of distinct layer names.
     This bookkeeping runs inside measured [hop] regions, so on a warm
     tree it allocates nothing: lookups raise [Not_found] rather than
     box a [Some], and scopes restore [cur] with a [match] rather than a
     [Fun.protect] closure. *)
  let rec ancestor_named name n =
    if n.n_name = name then n
    else match n.n_parent with Some p -> ancestor_named name p | None -> raise Not_found

  let enter name =
    let parent = !cur in
    match ancestor_named name parent with
    | n -> cur := n
    | exception Not_found ->
      let child =
        match Hashtbl.find parent.n_children name with
        | c -> c
        | exception Not_found ->
          let c = make_node name (Some parent) (parent.n_folded ^ ";" ^ name) in
          Hashtbl.replace parent.n_children name c;
          c
      in
      cur := child

  (* [f ()], then back to frame [prev] however it ends. *)
  let restoring prev f =
    match f () with
    | v ->
      cur := prev;
      v
    | exception e ->
      cur := prev;
      raise e

  let with_frame name f =
    if not plane.on then f ()
    else begin
      let prev = !cur in
      enter name;
      restoring prev f
    end

  let wrap node f =
    let prev = !cur in
    cur := node;
    restoring prev f

  let account ~dom ~wait_ns run_ns =
    if plane.on then begin
      let node = !cur in
      let a =
        match Hashtbl.find node.n_accs dom with
        | a -> a
        | exception Not_found ->
          let a = { a_run_ns = 0; a_wait_ns = 0; a_samples = 0 } in
          Hashtbl.replace node.n_accs dom a;
          a
      in
      a.a_run_ns <- a.a_run_ns + max 0 run_ns;
      a.a_wait_ns <- a.a_wait_ns + max 0 wait_ns;
      a.a_samples <- a.a_samples + 1
    end

  (* Bytes allocated so far, exact at any instant: minor-heap words
     ([Gc.minor_words] counts the live minor heap too) plus words
     allocated directly in the major heap (major minus promoted). OCaml
     5.0/5.1's [Gc.allocated_bytes] only folds the minor heap in around
     collections, so its reading would depend on where the GC clock was.
     This one needs no collection at a region edge and reads the same
     with or without a minor GC inside the region; the [Gc.counters]
     tuple and the boxed result are a constant residue per region. *)
  let word_bytes = float_of_int (Sys.word_size / 8)

  let allocated_bytes () =
    let minor = Gc.minor_words () in
    let _, promoted, major = Gc.counters () in
    (minor +. major -. promoted) *. word_bytes

  (* Inlined, so the saved floats stay unboxed. *)
  let[@inline] leave node prev outer start =
    let total = allocated_bytes () -. start in
    if total > region.inner then
      node.n_alloc_b <- node.n_alloc_b + int_of_float (total -. region.inner);
    region.inner <- outer +. total;
    cur := prev

  let hop h ~vcpu_ns f =
    if not plane.on then f ()
    else begin
      let prev = !cur in
      enter (hop_name h);
      let node = !cur in
      node.n_pkts <- node.n_pkts + 1;
      node.n_vcpu_ns <- node.n_vcpu_ns + vcpu_ns;
      let outer = region.inner in
      region.inner <- 0.;
      let start = allocated_bytes () in
      match f () with
      | v ->
        leave node prev outer start;
        v
      | exception e ->
        leave node prev outer start;
        raise e
    end

  let add_vcpu ns =
    if plane.on then begin
      let node = !cur in
      node.n_vcpu_ns <- node.n_vcpu_ns + ns
    end

  let stats () =
    fold
      (fun acc n ->
        Hashtbl.fold
          (fun dom a acc ->
            if a.a_samples = 0 then acc
            else
              {
                p_dom = dom;
                p_stack = n.n_folded;
                p_run_ns = a.a_run_ns;
                p_wait_ns = a.a_wait_ns;
                p_samples = a.a_samples;
              }
              :: acc)
          n.n_accs acc)
      [] root
    |> List.sort (fun a b -> compare (a.p_stack, a.p_dom) (b.p_stack, b.p_dom))

  (* The hop table: every frame named after a hop, wherever it sits in
     the tree, summed. *)
  let hop_stats () =
    let sum name (pkts, vcpu, alloc) n =
      if n.n_name = name then (pkts + n.n_pkts, vcpu + n.n_vcpu_ns, alloc + n.n_alloc_b)
      else (pkts, vcpu, alloc)
    in
    List.filter_map
      (fun h ->
        let pkts, vcpu, alloc = fold (sum (hop_name h)) (0, 0, 0) root in
        if pkts = 0 then None
        else Some { h_hop = h; h_pkts = pkts; h_vcpu_ns = vcpu; h_alloc_b = float_of_int alloc })
      all_hops
end

(* The hop table under the names the repository benchmark compiles
   against; everything else reads [Prof] itself. *)
module Dpath = struct
  type hop = Prof.hop = Ring_slot | Netfront | Ip | Tcp | Deliver | App

  type hstat = Prof.hop_stat = { h_hop : hop; h_pkts : int; h_vcpu_ns : int; h_alloc_b : float }

  let all_hops = Prof.all_hops
  let hop_name = Prof.hop_name
  let enable = Prof.enable
  let reset = Prof.reset
  let stats = Prof.hop_stats
end

(* ---- profile export (frame and hop tables as JSON lines) ---- *)

let add_profile_lines b =
  List.iter
    (fun (s : Prof.stat) ->
      Printf.bprintf b
        "{\"prof\":{\"dom\":%d,\"stack\":\"%s\",\"run_ns\":%d,\"wait_ns\":%d,\"samples\":%d}}\n"
        s.p_dom (json_escape s.p_stack) s.p_run_ns s.p_wait_ns s.p_samples)
    (Prof.stats ());
  List.iter
    (fun (h : Prof.hop_stat) ->
      Printf.bprintf b
        "{\"dpath\":{\"hop\":\"%s\",\"pkts\":%d,\"vcpu_ns\":%d,\"alloc_bytes\":%.0f}}\n"
        (Prof.hop_name h.h_hop) h.h_pkts h.h_vcpu_ns h.h_alloc_b)
    (Prof.hop_stats ())

let () =
  switch_plane ~drop_dom:Prof.drop_dom
    ~section:(fun ~dom:_ ~payload:_ b -> add_profile_lines b)
    "prof" Prof.plane Prof.reset

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
   postmortem bundle: the tripping domain's recent notes and the
   watermarks, then the section of every registered plane that is on
   (the profiler's frame and hop tables, a metrics snapshot, the
   captured frames of the implicated flow). Bundles are retained in
   memory (bounded) and optionally written to a directory as JSONL. *)

module Flight = struct
  type fev = { fe_t : int; fe_dom : int; fe_cat : category; fe_name : string; fe_payload : payload }
  type ring = { buf : fev array; mutable len : int; mutable head : int }

  let capacity = 256
  let max_bundles = 8

  type fstate = {
    mutable f_dir : string option;
    rings : (int, ring) Hashtbl.t;
    marks : (string, int ref) Hashtbl.t;
    mutable f_trips : int;
    mutable f_bundles : (string * string) list;  (* newest first, bounded *)
    mutable f_seq : int;
  }

  let fs =
    {
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
  let plane = { on = false }
  let () = switch_plane ~drop_dom:(Hashtbl.remove fs.rings) "flight" plane reset
  let enabled () = plane.on

  let enable ?dir () =
    (match dir with Some _ -> fs.f_dir <- dir | None -> ());
    plane.on <- true

  let disable () = plane.on <- false

  let dummy_fev = { fe_t = 0; fe_dom = -1; fe_cat = Sched; fe_name = ""; fe_payload = [] }

  let ring_of dom =
    match Hashtbl.find_opt fs.rings dom with
    | Some r -> r
    | None ->
      let r = { buf = Array.make capacity dummy_fev; len = 0; head = 0 } in
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
    List.iter (fun p -> if p.is_on () then p.section ~dom ~payload b) !all_planes;
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
