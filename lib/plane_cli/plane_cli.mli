(** The observability planes on the command line, declared once for
    every command that offers them ([mirage_sim build], [boot],
    [monitor], [fleet] and [bench]): the [--trace FILE], [--profile FILE]
    and [--flight DIR] flags, and the one bracket that acts on them. A
    plane is on only while its flag asks for it. *)

(** Rendering of the global {!Trace} state: JSONL export and summaries. *)
module Trace_report = Trace_report

(** [--trace FILE]: record the event trace and write it as JSON lines. *)
val trace : string option Cmdliner.Term.t

(** [--profile FILE]: run the vCPU profiler and per-packet hop accounting
    and write the profile as JSON lines. *)
val profile : string option Cmdliner.Term.t

(** [--flight DIR]: arm the flight recorder, with postmortem bundles
    written into [DIR]. *)
val flight : string option Cmdliner.Term.t

(** Open an optional output file before the run, paired with its name,
    so a bad path fails at once: one line on stderr, exit status 1. *)
val open_output : string option -> (string * out_channel) option

(** [run ?trace ?profile ?flight f] runs [f] with exactly the planes
    asked for. Before [f]: it opens the trace and profile files and
    checks that the flight directory is a writable directory (a bad one
    fails as {!open_output} does), then enables the tracer (a ring of
    2{^18} events), the profiler and the flight recorder. After [f]: it
    writes each file with a ["... written to FILE"] notice and its
    summary, calls [after_trace] on [f]'s result right after the trace
    summary, reports the flight recorder's trips, and turns every plane
    off ({!Trace.quiesce}). *)
val run :
  ?trace:string ->
  ?profile:string ->
  ?flight:string ->
  ?after_trace:('a -> unit) ->
  (unit -> 'a) ->
  unit
