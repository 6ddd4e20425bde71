(** Render the global {!Trace} state: JSON-lines export to a file and a
    human-readable summary table with percentiles computed from the
    per-span log-linear histograms ([Trace.Hist]), merging per-domain
    histograms into an appliance-wide row. *)

(** Open an optional output file before the run, paired with its name,
    so a bad path fails at once: one line on stderr, exit status 1. *)
val open_output : string option -> (string * out_channel) option

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

(** Write the profiler and datapath tables to [oc] as JSON lines (see
    [Trace.export_profile_jsonl]), then close [oc] — input to
    [mirage_sim profile]. *)
val write_profile : out_channel -> unit

(** Print a top-style table of the profiler state to stdout with a
    heading: per-(stack, dom) vCPU time sorted by run time descending with
    share-of-total, then the per-packet datapath cost table. Prints
    nothing when both planes are empty. *)
val print_profile_summary : unit -> unit
