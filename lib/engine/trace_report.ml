let open_output =
  Option.map (fun file ->
      try (file, open_out file)
      with Sys_error msg ->
        Printf.eprintf "%s: cannot write output: %s\n" (Filename.basename Sys.executable_name) msg;
        exit 1)

let write_jsonl oc = Fun.protect ~finally:(fun () -> close_out oc) (fun () -> Trace.export_jsonl oc)

let us ns = float_of_int ns /. 1e3

let group_by_name stats =
  List.fold_left
    (fun groups (s : Trace.span_stat) ->
      match List.assoc_opt s.Trace.span_name groups with
      | Some ss ->
        (s.Trace.span_name, s :: ss) :: List.remove_assoc s.Trace.span_name groups
      | None -> (s.Trace.span_name, [ s ]) :: groups)
    [] stats
  |> List.map (fun (name, ss) -> (name, List.rev ss))
  |> List.sort compare

let span_row b ~name ~dom (h : Trace.Hist.t) =
  let pc p = Trace.Hist.percentile h p /. 1e3 in
  Buffer.add_string b
    (Printf.sprintf "  %-28s %-5s %10d %10.2f %10.2f %10.2f %10.2f %10.2f %10.2f\n" name dom
       (Trace.Hist.count h)
       (Trace.Hist.mean h /. 1e3)
       (us (Trace.Hist.min_ns h))
       (pc 50.0) (pc 95.0) (pc 99.0)
       (us (Trace.Hist.max_ns h)))

let summary_string () =
  let counts = Trace.counts () in
  if counts = [] && Trace.span_stats () = [] && Trace.events () = [] then ""
  else begin
    let stats = Trace.span_stats () in
    let b = Buffer.create 1024 in
    let nevents = List.length (Trace.events ()) in
    Buffer.add_string b
      (Printf.sprintf "events: %d retained, %d dropped (ring wrap)\n" nevents (Trace.dropped ()));
    if counts <> [] then begin
      Buffer.add_string b "counters:\n";
      List.iter
        (fun (name, v) -> Buffer.add_string b (Printf.sprintf "  %-34s %12d\n" name v))
        counts
    end;
    if stats <> [] then begin
      Buffer.add_string b
        (Printf.sprintf "spans (us):\n  %-28s %-5s %10s %10s %10s %10s %10s %10s %10s\n" "span"
           "dom" "count" "mean" "min" "p50" "p95" "p99" "max");
      List.iter
        (fun (name, per_dom) ->
          List.iter
            (fun (s : Trace.span_stat) ->
              span_row b ~name
                ~dom:(if s.Trace.span_dom < 0 then "-" else string_of_int s.Trace.span_dom)
                s.Trace.span_hist)
            per_dom;
          (* Per-domain histograms merge into one appliance-wide row. *)
          if List.length per_dom > 1 then begin
            let merged =
              List.fold_left
                (fun acc (s : Trace.span_stat) -> Trace.Hist.merge acc s.Trace.span_hist)
                (Trace.Hist.create ()) per_dom
            in
            span_row b ~name ~dom:"all" merged
          end)
        (group_by_name stats)
    end;
    Buffer.contents b
  end

let print_summary () =
  match summary_string () with
  | "" -> ()
  | s ->
    print_string "\n==== trace summary ====\n";
    print_string s

(* ---- profiler ---- *)

let write_profile oc =
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> Trace.export_profile_jsonl oc)

let profile_summary_string () =
  let stats = Trace.Prof.stats () in
  let dstats = Trace.Dpath.stats () in
  if stats = [] && dstats = [] then ""
  else begin
    let b = Buffer.create 1024 in
    if stats <> [] then begin
      let total = List.fold_left (fun a (s : Trace.Prof.stat) -> a + s.Trace.Prof.p_run_ns) 0 stats in
      Buffer.add_string b
        (Printf.sprintf "vcpu profile (total %.3f ms):\n  %-44s %5s %12s %7s %12s\n"
           (float_of_int total /. 1e6)
           "stack" "dom" "run_us" "share" "wait_us");
      let by_run =
        List.sort
          (fun (a : Trace.Prof.stat) b ->
            compare (b.Trace.Prof.p_run_ns, a.Trace.Prof.p_stack, a.Trace.Prof.p_dom)
              (a.Trace.Prof.p_run_ns, b.Trace.Prof.p_stack, b.Trace.Prof.p_dom))
          stats
      in
      List.iter
        (fun (s : Trace.Prof.stat) ->
          let share =
            if total = 0 then 0.
            else 100. *. float_of_int s.Trace.Prof.p_run_ns /. float_of_int total
          in
          Buffer.add_string b
            (Printf.sprintf "  %-44s %5d %12.1f %6.1f%% %12.1f\n" s.Trace.Prof.p_stack
               s.Trace.Prof.p_dom
               (float_of_int s.Trace.Prof.p_run_ns /. 1e3)
               share
               (float_of_int s.Trace.Prof.p_wait_ns /. 1e3)))
        by_run
    end;
    if dstats <> [] then begin
      Buffer.add_string b
        (Printf.sprintf "datapath (per packet):\n  %-10s %10s %14s %14s\n" "hop" "pkts"
           "vcpu-ns/pkt" "alloc-b/pkt");
      List.iter
        (fun (h : Trace.Dpath.hstat) ->
          let n = float_of_int h.Trace.Dpath.h_pkts in
          Buffer.add_string b
            (Printf.sprintf "  %-10s %10d %14.1f %14.1f\n"
               (Trace.Dpath.hop_name h.Trace.Dpath.h_hop)
               h.Trace.Dpath.h_pkts
               (float_of_int h.Trace.Dpath.h_vcpu_ns /. n)
               (h.Trace.Dpath.h_alloc_b /. n)))
        dstats
    end;
    Buffer.contents b
  end

let print_profile_summary () =
  match profile_summary_string () with
  | "" -> ()
  | s ->
    print_string "\n==== profile summary ====\n";
    print_string s
