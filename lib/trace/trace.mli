(** Unified event tracing and metrics, in the spirit of Xen's xentrace.

    One global, process-wide trace: a bounded in-memory ring of typed
    events stamped with the virtual clock, an exact per-name count of
    the instant events emitted, and latency-recording spans backed by
    mergeable log-linear histograms, plus causal flow ids (Dapper-style)
    that propagate across the layers of a request. Everything is a no-op until {!enable} is
    called; with tracing off every instrumentation site costs a single
    branch (guard payload construction with {!enabled} at call sites).

    The library is dependency-free so it can sit below the simulation
    engine in the build graph; the engine installs its virtual clock via
    {!set_clock} and renders summaries (see [Plane_cli.Trace_report]). *)

(** Event categories mirror the subsystems of the simulated stack. *)
type category =
  | Sched  (** engine event-loop dispatch, vCPU accounting *)
  | Boot  (** domain construction, sealing, appliance bring-up *)
  | Hypercall
  | Evtchn
  | Gnttab
  | Ring  (** shared-memory ring push/consume *)
  | Device  (** netif/blkif request-response *)
  | Net  (** network stack (TCP rtt, retransmit, rx processing) *)
  | User of string

(** Typed event payloads, kept primitive so emission never allocates
    surprisingly. *)
type value = Int of int | Float of float | String of string | Bool of bool

type payload = (string * value) list

type phase =
  | Instant
  | Begin  (** span opened *)
  | End  (** span closed; payload carries ["dur_ns"] *)

type event = {
  seq : int;  (** global emission order, never reused until {!reset} *)
  time : int;  (** virtual-clock ns, monotonically non-decreasing *)
  dom : int;  (** domain id, [-1] when not attributable *)
  cat : category;
  name : string;
  phase : phase;
  depth : int;  (** span nesting depth at emission time *)
  flow : int;  (** causal flow id, [-1] when no flow is current *)
  payload : payload;
}

(** {1 Log-linear histograms}

    HDR-style: exact unit-width buckets for small values, then a fixed
    number of sub-buckets per power-of-two octave, giving a bounded
    relative quantization error (< 1%) at any magnitude with O(1) record
    cost and compact, mergeable storage. *)

module Hist : sig
  type t

  val create : unit -> t

  (** Record one (non-negative; clamped) value. *)
  val record : t -> int -> unit

  val count : t -> int
  val total : t -> int

  (** Exact minimum / maximum of recorded values; 0 when empty. *)
  val min_ns : t -> int

  val max_ns : t -> int
  val mean : t -> float

  (** Functional merge into a fresh histogram. *)
  val merge : t -> t -> t

  (** [percentile h p] for [p] in [0..100]: the bucket-midpoint estimate
      at that rank, clamped to the exact recorded min/max (so p0 and p100
      are exact). 0 when empty. *)
  val percentile : t -> float -> float

  (** Non-empty buckets as [(lo, hi_inclusive, count)], ascending. *)
  val buckets : t -> (int * int * int) list

  (** Percentiles over a sliding time window, for control loops: a
      cumulative histogram never recovers after an overload (one bad
      episode raises its p99 for the rest of the run), a window does.
      It is a ring of 8 histograms, one per slot of [s = window_ns / 8]
      ns; a read covers the current slot and the 7 before it, so every
      sample younger than [7 * s] and none older than [8 * s] -- the
      last 7/8 to 8/8 of [window_ns] when it is a multiple of 8. Times
      are non-negative, non-decreasing ns. *)
  module Window : sig
    type t

    (** @raise Invalid_argument when [window_ns] is below 8. *)
    val create : window_ns:int -> t

    val record : t -> now:int -> int -> unit

    (** As {!Hist.percentile} over the samples covered at [now]; 0 when
        there are none. *)
    val percentile : t -> now:int -> float -> float
  end
end

(** {1 Planes}

    The event tracer, {!Metrics}, {!Prof} and {!Flight} are the four
    in-process observability planes. Each is switched on with its own
    [enable] (which may take plane-specific settings), and all of them
    register in one table that owns whole-process teardown. A plane's
    [enabled ()] reads a single mutable field, so the table adds nothing
    to a disabled hot site. *)

(** Every plane as [(name, on)], in registration order: ["trace"],
    ["metrics"], ["prof"], ["flight"]. *)
val planes : unit -> (string * bool) list

(** [drop_dom dom] forgets [dom] in every plane: its metric series
    (whose read callbacks would otherwise pin the domain's devices and
    stack), its profiler accumulators and its flight ring. Called once
    from domain teardown ([Xensim.Hypervisor.destroy]). *)
val drop_dom : int -> unit

(** Disable and reset every plane: afterwards each [enabled ()] is
    false and every table is empty (events, event counts, spans,
    metric registrations, profile stacks and hop counts, flight rings,
    watermarks and bundles). The teardown for a run that owned the whole
    process. *)
val quiesce : unit -> unit

(** {1 Lifecycle of the event tracer} *)

val enabled : unit -> bool

(** [enable ()] turns tracing on. [capacity] bounds the event ring
    (default 65536); once full, the oldest events are overwritten and
    {!dropped} counts them. Idempotent apart from resizing. *)
val enable : ?capacity:int -> unit -> unit

val disable : unit -> unit

(** Drop all recorded events, event counts, span statistics and flow
    state. Does not change enabled/clock state. *)
val reset : unit -> unit

(** Install the virtual clock. Each installation re-bases timestamps so
    that a trace spanning several simulator instances (each starting at
    t=0) remains monotonically non-decreasing end to end. *)
val set_clock : (unit -> int) -> unit

(** {1 Events} *)

(** [emit ~dom ~payload ~cat name] appends an instant event. No-op when
    disabled, but guard calls that build a payload with {!enabled} so the
    list is never allocated. *)
val emit : ?dom:int -> ?payload:payload -> cat:category -> string -> unit

(** Recorded events, oldest first. *)
val events : unit -> event list

(** Events overwritten due to ring wraparound since the last {!reset}. *)
val dropped : unit -> int

(** Every instant event emitted since the last {!reset} (including the
    ones the ring has since overwritten), counted per name, as
    [(name, count)] sorted by name. Span [Begin]/[End] events are not
    counted here: {!span_stats} counts spans. *)
val counts : unit -> (string * int) list

(** {1 Flows}

    A flow id names one causal request as it crosses layers: allocated
    where a request enters the system (netif backend RX), stamped into
    every event emitted while it is ambient, and propagated across
    asynchronous hops by the engine scheduler (see [Engine.Sim]), which
    captures the current flow when a callback is scheduled and restores
    it when the callback runs. *)

module Flow : sig
  type id = int

  (** [-1]: no flow. *)
  val none : id

  (** The ambient flow id, {!none} when unset. Cheap (one load). *)
  val current : unit -> id

  (** Allocate a fresh id and emit a ["flow.begin"] event stamped with
      it. Does not change the ambient flow; wrap work with {!with_flow}. *)
  val start : ?dom:int -> unit -> id

  (** [with_flow id f] runs [f] with [id] as the ambient flow, restoring
      the previous flow afterwards (exception-safe). When [id < 0], runs
      [f] unchanged. *)
  val with_flow : id -> (unit -> 'a) -> 'a

  (** Like {!with_flow} but also installs [id = -1] (used by the
      scheduler to restore a captured context verbatim). *)
  val wrap : id -> (unit -> unit) -> unit
end

(** {1 Spans}

    A span measures the virtual time between {!span} and {!finish},
    emitting paired [Begin]/[End] events and recording the duration into
    a per-(name, domain) histogram. Closing is idempotent. *)

type span

val span : ?dom:int -> ?payload:payload -> cat:category -> string -> span

(** The span [span] returns while tracing is off: never live, so
    [finish] ignores it. A placeholder for tables of open spans. *)
val dead_span : span
val finish : ?payload:payload -> span -> unit

(** [record_span_ns ~dom ~cat name dur] records a duration measured
    elsewhere (e.g. a TCP rtt probe, or a vCPU slice whose bounds are
    only known after the fact) into the same statistics, emitting a
    single [End] event stamped now. The offline analyzer treats such an
    event as a retroactive interval [[t - dur, t]] (shifted earlier by a
    ["lag_ns"] payload when present). *)
val record_span_ns : ?dom:int -> ?payload:payload -> cat:category -> string -> int -> unit

type span_stat = {
  span_name : string;
  span_cat : category;
  span_dom : int;
  span_count : int;
  span_total_ns : int;
  span_min_ns : int;
  span_max_ns : int;
  span_hist : Hist.t;  (** full log-linear distribution of durations *)
}

(** All span statistics, sorted by (name, dom). *)
val span_stats : unit -> span_stat list

(** {1 Export} *)

(** One event as a single-line JSON object (no trailing newline):
    [{"seq":..,"t":..,"dom":..,"cat":"..","name":"..","ph":"I|B|E",
      "depth":..,"flow":..,"args":{..}}]. *)
val to_json_line : event -> string

(** Write the whole trace as JSON lines: every retained event, then one
    [{"counter":..,"value":..}] line per instant-event name with its
    {!counts} entry, and one [{"span":..}] line per span
    statistic (count/total/min/max plus histogram-derived p50/p95/p99).
    Deterministic for deterministic runs. *)
val export_jsonl : out_channel -> unit

(** {1 Per-domain metrics registry}

    The in-band monitoring plane: subsystems register named counters,
    gauges and {!Hist}-backed summaries attributed to a domain; the
    registry is snapshotted per domain and rendered as Prometheus-style
    text by the exposition handler ([Uhttp.Metrics_export]), which the
    monitor appliance scrapes over simulated TCP.

    Orthogonal to the event tracer: either plane can be on while the
    other is off. Disabled (the default), an update site costs one load
    and one predictable branch, and registration is a no-op — figure
    output is byte-identical with the plane compiled in. *)

module Metrics : sig
  type kind = Counter | Gauge | Summary
  type metric

  (** One registry entry at snapshot time. For counters/gauges, [s_value]
      is the value and the other fields are empty; for summaries,
      [s_value] is the observation count, [s_sum] the total, and
      [s_quantiles] the (q, estimate) pairs for q in {0.5, 0.9, 0.99}. *)
  type sample = {
    s_name : string;
    s_dom : int;
    s_kind : kind;
    s_value : int;
    s_sum : int;
    s_quantiles : (float * float) list;
  }

  val enabled : unit -> bool
  val enable : unit -> unit
  val disable : unit -> unit

  (** Drop every registration: metric read-callbacks capture subsystem
      state, so they must not outlive the world that registered them. *)
  val reset : unit -> unit

  (** Register a push-updated metric owned by the caller. [dom] defaults
      to [-1] (unattributed). When the plane is disabled the metric is
      created but not entered in the registry, and updates to it are
      no-ops. Re-registering the same (name, dom) replaces the entry. *)
  val counter : ?dom:int -> string -> metric
  val summary : ?dom:int -> string -> metric

  (** [register_read ~dom ~kind name read] registers a pull metric whose
      value is [read ()] evaluated at snapshot time — zero update-site
      cost for stats the subsystem already maintains. *)
  val register_read : ?dom:int -> kind:kind -> string -> (unit -> int) -> unit

  (** A metric attached to nothing: every update is a no-op. Lets a
      subsystem keep one unconditional update site while opting out of
      registration. *)
  val detached : metric

  (** Saturating add of [n > 0] (counters). *)
  val inc : metric -> int -> unit

  (** Record one observation into a summary's histogram. *)
  val observe : metric -> int -> unit

  val value : metric -> int

  (** All samples, optionally restricted to one domain, sorted by
      (name, dom). Deterministic for deterministic runs. *)
  val snapshot : ?dom:int -> unit -> sample list

  (** Prometheus-style text exposition of {!snapshot}: a [# TYPE] line
      per metric, [name{dom="N"} value] series, and for summaries the
      quantile series plus [_sum]/[_count]. *)
  val to_text : ?dom:int -> unit -> string
end

(** {1 Continuous virtual-time profiler}

    Attributes cost to ambient layer/callsite frames
    ([engine;netif;ip;tcp;app]). Frames are pushed with {!Prof.with_frame}
    around layer entry points and propagated across asynchronous hops by
    the engine scheduler exactly like flow ids: [Engine.Sim.at] captures
    {!Prof.current_node} (one load) and re-installs it around the deferred
    callback. Every vCPU charge ([Xensim.Domain.reserve_slice]) is a
    sample tick on the virtual-time axis whose weight is the charged
    duration, so the resulting folded stacks are an exact attribution of
    every vCPU nanosecond — the simulator's continuous profiler has no
    sampling error by construction. Folded stacks merge by summation
    (the [profile diff] CLI relies on this). The packet path's hops
    (backend ring slot, netfront delivery, IP input, TCP processing,
    receive-buffer delivery, app reply) are frames too, entered with
    {!Prof.hop}. Disabled (the default), every site costs one load and
    one predictable branch. *)

module Prof : sig
  (** A position in the interned frame tree (an ambient stack). *)
  type node

  type stat = {
    p_dom : int;  (** domain charged, [-1] when unattributed *)
    p_stack : string;  (** folded stack, e.g. ["engine;netif;ip;tcp"] *)
    p_run_ns : int;  (** vCPU ns charged under this exact stack *)
    p_wait_ns : int;  (** vCPU-queue wait ns behind those charges *)
    p_samples : int;  (** number of charge ticks *)
  }

  type hop = Ring_slot | Netfront | Ip | Tcp | Deliver | App

  type hop_stat = {
    h_hop : hop;
    h_pkts : int;
    h_vcpu_ns : int;  (** declared by the {!hop} calls *)
    h_alloc_b : float;  (** exclusive allocated bytes in this hop *)
  }

  val enabled : unit -> bool
  val enable : unit -> unit
  val disable : unit -> unit

  (** Zero every accumulator and hop count and return to the root
      frame. Frames stay interned, so a callback scheduled under a frame
      before the reset is still counted under it afterwards. Do not call
      while frames are pushed. *)
  val reset : unit -> unit

  (** The ambient stack position. Cheap (one load); used by the scheduler
      to capture context for deferred callbacks. *)
  val current_node : unit -> node

  (** True for the root ([engine]) frame — no need to wrap callbacks
      scheduled from the root. *)
  val is_root : node -> bool

  (** [with_frame name f] runs [f] with [name] pushed on the ambient
      stack, restoring afterwards (exception-safe). When the profiler is
      disabled, runs [f] unchanged — guard call sites with {!enabled} so
      the closure is never allocated. *)
  val with_frame : string -> (unit -> 'a) -> 'a

  (** [wrap node f] runs [f] with the ambient stack restored to a
      captured [node] (scheduler use). *)
  val wrap : node -> (unit -> unit) -> unit

  (** [account ~dom ~wait_ns run_ns] attributes one vCPU charge to the
      ambient stack. Called from the vCPU accounting chokepoint, so its
      arguments are plain labels: an optional one would box a [Some] per
      call. *)
  val account : dom:int -> wait_ns:int -> int -> unit

  (** All non-empty (stack, dom) accumulators, sorted by (stack, dom).
      Deterministic for deterministic runs. *)
  val stats : unit -> stat list

  val all_hops : hop list

  (** The frame name of a hop: ["ring"], ["netfront"], ["ip"], ["tcp"],
      ["deliver"], ["app"]. *)
  val hop_name : hop -> string

  (** [hop h ~vcpu_ns f] runs [f] as one packet through [h]: inside the
      frame [hop_name h] (entered like {!with_frame}), counting there one
      packet, [vcpu_ns] of declared vCPU cost, and the {e exclusive}
      bytes allocated inside [f]: minus those of the hops nested in it.
      The counts and declared ns are deterministic for a seed, the bytes
      for a fixed binary. Runs [f] unchanged when disabled — guard call
      sites with {!enabled} so the closure and cost arguments are never
      constructed. *)
  val hop : hop -> vcpu_ns:int -> (unit -> 'a) -> 'a

  (** [add_vcpu ns] declares [ns] more vCPU cost on the ambient frame,
      for a hop whose cost is known only once it has run (call it from
      inside the {!hop}). *)
  val add_vcpu : int -> unit

  (** Hops with at least one packet, in path order, each summed over
      every frame of its name. *)
  val hop_stats : unit -> hop_stat list

  (** Bytes this process has allocated so far, exact at any instant with
      no collection (unlike OCaml 5.1's [Gc.allocated_bytes], which only
      counts the minor heap around collections): the counter {!hop}
      reads at region edges. *)
  val allocated_bytes : unit -> float
end

(** The hop table of {!Prof} under the names the repository benchmark
    ([benchmark/]) compiles against. [enable] and [reset] are those of
    {!Prof}, [stats] is {!Prof.hop_stats}. *)
module Dpath : sig
  type hop = Prof.hop = Ring_slot | Netfront | Ip | Tcp | Deliver | App

  type hstat = Prof.hop_stat = { h_hop : hop; h_pkts : int; h_vcpu_ns : int; h_alloc_b : float }

  val all_hops : hop list
  val hop_name : hop -> string
  val enable : unit -> unit
  val reset : unit -> unit
  val stats : unit -> hstat list
end

(** Write the profiler's tables as JSON lines: a [{"profile":"v1"}]
    header, one [{"prof":{..}}] line per (stack, dom) and one
    [{"dpath":{..}}] line per hop. Input to [mirage_sim profile]. *)
val export_profile_jsonl : out_channel -> unit

(** {1 Flight recorder and postmortem bundles}

    The black box: a bounded per-domain ring of recent notes (retransmit,
    persist probes, drops, failure breadcrumbs) plus named
    high-watermarks, cheap enough to leave always-on. On a failure signal
    — TCP flow give-up ([Timeout]), a monitor alert firing, a nonzero
    domain exit — {!Flight.trip} freezes a postmortem bundle: the
    tripping domain's recent notes, the watermarks, the profiler's
    frame and hop tables (when it is on) and a metrics
    snapshot, as JSON lines. Bundles are retained in memory (last 8) and
    optionally written to a directory. Clean runs trip nothing and write
    nothing. *)

module Flight : sig
  (** One recorded breadcrumb. *)
  type fev = {
    fe_t : int;
    fe_dom : int;
    fe_cat : category;
    fe_name : string;
    fe_payload : payload;
  }

  val enabled : unit -> bool

  (** [enable ~capacity ~dir ()] turns the recorder on. [capacity] bounds
      each per-domain ring (default 256, applies to rings created from
      now on); [dir], when given, is where {!trip} writes each bundle as
      [flight-NNNN-<reason>.jsonl]. *)
  val enable : ?capacity:int -> ?dir:string -> unit -> unit

  val disable : unit -> unit

  (** Drop rings, watermarks, retained bundles, trip count and the output
      directory. *)
  val reset : unit -> unit

  (** Append a breadcrumb to [dom]'s ring (no-op when disabled; guard
      payload construction with {!enabled}). *)
  val note : ?dom:int -> ?payload:payload -> cat:category -> string -> unit

  (** [watermark name v] raises the named high-watermark to at least [v]
      (queue depths, buffered bytes). *)
  val watermark : string -> int -> unit

  (** [dom]'s recent notes, oldest first. *)
  val recent : int -> fev list

  (** All high-watermarks as [(name, max)], sorted by name. *)
  val watermarks : unit -> (string * int) list

  (** Freeze a postmortem bundle attributed to [dom] (plus the
      unattributed ring) for [reason]. Also emits a ["flight.trip"] trace
      event when tracing is on. *)
  val trip : ?dom:int -> ?payload:payload -> reason:string -> unit -> unit

  (** Number of trips since the last {!reset}. *)
  val trips : unit -> int

  (** Retained bundles as [(filename, contents)], oldest first. *)
  val bundles : unit -> (string * string) list

  val last_bundle : unit -> (string * string) option

  (** Install (or remove, with [None]) the wire-capture hook: called
      while building each {!trip} bundle with the trip's context, it
      returns extra bundle lines — the capture plane (the [Capture]
      library, which installs it when its module initialises) uses this
      to freeze the last few captured frames of the implicated flow into
      the postmortem. Returning [""] appends nothing. *)
  val set_capture_hook : (dom:int -> reason:string -> payload:payload -> string) option -> unit
end
