(** Render the global {!Trace} state: JSON-lines export to a file and a
    human-readable summary table with percentiles computed from the
    per-span log-linear histograms ([Trace.Hist]), merging per-domain
    histograms into an appliance-wide row. *)

(** Write every retained event, event count and span statistic to [oc] as
    JSON lines (see [Trace.export_jsonl]), then close [oc]. *)
val write_jsonl : out_channel -> unit

(** Multi-line summary: the instant-event counts ([Trace.counts]) under
    [counters:], then one row per span name
    and domain with count/mean/min/p50/p95/p99/max in microseconds
    (percentiles from the span's histogram), plus an [all] row per span
    name merging every domain's histogram. Returns [""] when nothing was
    recorded. *)
val summary_string : unit -> string

(** Print {!summary_string} to stdout with a heading, if non-empty. *)
val print_summary : unit -> unit

(** Write the profiler's frame and hop tables to [oc] as JSON lines (see
    [Trace.export_profile_jsonl]), then close [oc] — input to
    [mirage_sim profile]. *)
val write_profile : out_channel -> unit

(** Print a top-style table of the profiler state to stdout with a
    heading: per-(stack, dom) vCPU time sorted by run time descending with
    share-of-total, then the per-packet {!hop_table}. Prints nothing when
    the profiler recorded nothing. *)
val print_profile_summary : unit -> unit

(** The per-hop table: a header, then one [(hop, pkts, vcpu_ns,
    alloc_bytes)] row per hop with costs per packet. Shared by
    {!print_profile_summary}, [mirage_sim profile top] and [bench dpath]. *)
val hop_table : (string * int * int * float) list -> string

(** [Trace.Prof.hop_stats] as {!hop_table} rows. *)
val hop_rows : Trace.Prof.hop_stat list -> (string * int * int * float) list
