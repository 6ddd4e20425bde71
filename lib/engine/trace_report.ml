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

(* The per-hop table as [(hop, pkts, vcpu_ns, alloc_b)] rows, costs
   shown per packet. *)
let hop_table rows =
  let b = Buffer.create 512 in
  Printf.bprintf b "  %-10s %10s %14s %14s\n" "hop" "pkts" "vcpu-ns/pkt" "alloc-b/pkt";
  List.iter
    (fun (hop, pkts, vcpu_ns, alloc_b) ->
      let n = float_of_int (max 1 pkts) in
      Printf.bprintf b "  %-10s %10d %14.1f %14.1f\n" hop pkts (float_of_int vcpu_ns /. n)
        (alloc_b /. n))
    rows;
  Buffer.contents b

let hop_rows stats =
  List.map
    (fun (h : Trace.Prof.hop_stat) ->
      (Trace.Prof.hop_name h.h_hop, h.h_pkts, h.h_vcpu_ns, h.h_alloc_b))
    stats

let profile_summary_string () =
  let stats = Trace.Prof.stats () in
  let dstats = Trace.Prof.hop_stats () in
  if stats = [] && dstats = [] then ""
  else begin
    let b = Buffer.create 1024 in
    if stats <> [] then begin
      let total = List.fold_left (fun a (s : Trace.Prof.stat) -> a + s.p_run_ns) 0 stats in
      Printf.bprintf b "vcpu profile (total %.3f ms):\n  %-44s %5s %12s %7s %12s\n"
        (float_of_int total /. 1e6)
        "stack" "dom" "run_us" "share" "wait_us";
      let by_run =
        List.sort
          (fun (a : Trace.Prof.stat) b ->
            compare (b.p_run_ns, a.p_stack, a.p_dom) (a.p_run_ns, b.p_stack, b.p_dom))
          stats
      in
      List.iter
        (fun (s : Trace.Prof.stat) ->
          let share =
            if total = 0 then 0. else 100. *. float_of_int s.p_run_ns /. float_of_int total
          in
          Printf.bprintf b "  %-44s %5d %12.1f %6.1f%% %12.1f\n" s.p_stack s.p_dom
            (float_of_int s.p_run_ns /. 1e3)
            share
            (float_of_int s.p_wait_ns /. 1e3))
        by_run
    end;
    if dstats <> [] then begin
      Buffer.add_string b "datapath (per packet):\n";
      Buffer.add_string b (hop_table (hop_rows dstats))
    end;
    Buffer.contents b
  end

let print_profile_summary () =
  match profile_summary_string () with
  | "" -> ()
  | s ->
    print_string "\n==== profile summary ====\n";
    print_string s
