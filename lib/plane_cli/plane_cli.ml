module Trace_report = Trace_report
open Cmdliner

let trace =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record a full event trace of the run and write it to $(docv) as JSON lines \
           (analyse with $(b,mirage_sim trace)).")

let profile =
  Arg.(
    value
    & opt (some string) None
    & info [ "profile" ] ~docv:"FILE"
        ~doc:
          "Attribute every vCPU nanosecond to its layer stack and every datapath packet to its \
           per-hop cost; write the profile to $(docv) as JSON lines (analyse with $(b,mirage_sim \
           profile)) and print a top-style summary.")

let flight =
  Arg.(
    value
    & opt (some string) None
    & info [ "flight" ] ~docv:"DIR"
        ~doc:
          "Arm the flight recorder: keep a bounded ring of recent events per domain and dump a \
           postmortem bundle into $(docv), which must be a writable directory, on failure \
           signals (TCP give-up, fired alerts, non-zero domain exits). No bundle is written on a \
           clean run.")

let cannot_write what =
  Printf.eprintf "%s: cannot write %s\n" (Filename.basename Sys.executable_name) what;
  exit 1

let open_output =
  Option.map (fun file ->
      try (file, open_out file) with Sys_error msg -> cannot_write ("output: " ^ msg))

(* [Trace.Flight.trip] drops a bundle it cannot write, so the directory
   is checked before the run rather than lost in a postmortem. *)
let check_dir dir =
  let writable =
    Sys.file_exists dir && Sys.is_directory dir
    && match Unix.access dir [ Unix.W_OK; Unix.X_OK ] with
       | () -> true
       | exception Unix.Unix_error _ -> false
  in
  if not writable then cannot_write ("flight bundles: " ^ dir ^ " is not a writable directory")

(* Figure workloads, the monitor and the fleet emit hundreds of
   thousands of events. *)
let trace_capacity = 1 lsl 18

let run ?trace ?profile ?flight ?(after_trace = ignore) f =
  let trace_out = open_output trace and profile_out = open_output profile in
  Option.iter check_dir flight;
  if Option.is_some trace_out then Trace.enable ~capacity:trace_capacity ();
  if Option.is_some profile_out then Trace.Prof.enable ();
  Option.iter (fun dir -> Trace.Flight.enable ~dir ()) flight;
  let r = f () in
  Option.iter
    (fun (file, oc) ->
      Trace_report.write_jsonl oc;
      Printf.printf "\ntrace written to %s\n" file;
      Trace_report.print_summary ();
      after_trace r)
    trace_out;
  Option.iter
    (fun (file, oc) ->
      Trace_report.write_profile oc;
      Printf.printf "\nprofile written to %s\n" file;
      Trace_report.print_profile_summary ())
    profile_out;
  if Option.is_some flight then
    Printf.printf "flight recorder: %d trip(s), %d bundle(s) retained\n" (Trace.Flight.trips ())
      (List.length (Trace.Flight.bundles ()));
  Trace.quiesce ()
