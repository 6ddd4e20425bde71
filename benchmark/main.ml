(* The repository benchmark. Every repetition runs one workload in a fresh
   single-threaded process ([rep]); the parent only spawns repetitions,
   one at a time, and aggregates their results.

     main.exe --workload W --seed N --seconds S --trace 0|1
       Repeat W until S seconds have passed and print one JSON line with
       the end-to-end metrics; with --trace 1, pairs of an untraced and a
       traced repetition and the per-layer metrics instead.
     main.exe run [--seed N] [--reps R] [--traced] [--sets K] [--out F]
       Every workload, R repetitions each, printing every metric with its
       unit, median and quartiles. --sets 2 runs everything twice and
       checks that the sets agree. --smoke runs one short repetition of
       each workload and checks correctness only.
     main.exe rep --workload W --seed N [--scale X] [--spans F]
       One repetition in this process.

   A seed stands for [draws] seeded instances ("draws") of the workload,
   repetition [r] running draw [r mod draws]: one Poisson schedule or
   one query mix is a single sample of what the workload means, and its
   tail latency moves from draw to draw. Virtual-time and count metrics
   are the median over the draws, each draw's value checked to repeat
   exactly; host-time metrics are the median over all repetitions. The
   traced repetitions all run draw 0. *)

let workloads = [ Bulk_tcp.workload; Dns_udp.workload; Http_conn.workload; Boot_storm.workload ]
let draws = 5
let draw_seed ~seed draw = (seed * 1000) + draw

let find_workload name =
  match List.find_opt (fun w -> w.Workload.name = name) workloads with
  | Some w -> w
  | None ->
    Printf.eprintf "unknown workload %S (known: %s)\n" name
      (String.concat ", " (List.map (fun w -> w.Workload.name) workloads));
    exit 2

let out_file ~out_dir ~workload ~seed kind ext =
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  Filename.concat out_dir (Printf.sprintf "%s-%s-seed%d.%s" kind workload seed ext)

let write_file file contents =
  let oc = open_out file in
  output_string oc contents;
  close_out oc

(* ---- repetitions in child processes ---- *)

let spawn ~workload ~seed ~scale ?spans draw =
  let exe = Sys.executable_name in
  let args =
    [ exe; "rep"; "--workload"; workload; "--seed"; string_of_int (draw_seed ~seed draw) ]
    @ [ "--scale"; Printf.sprintf "%h" scale ]
    @ match spans with Some f -> [ "--spans"; f ] | None -> []
  in
  let ic = Unix.open_process_args_in exe (Array.of_list args) in
  let rec read acc = match input_line ic with l -> read (l :: acc) | exception End_of_file -> acc in
  let lines = List.rev (read []) in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> (draw, Rep.parse lines)
  | _ ->
    Printf.eprintf "a repetition of %s (seed %d, draw %d) did not finish\n" workload seed draw;
    exit 1

(* ---- aggregation ---- *)

type summary = {
  ok : bool;  (* every repetition correct, every draw's values repeated *)
  attempted : int;
  failed : int;
  samples : int;  (* fewest latency samples behind any repetition's percentiles *)
  values : (string * float list) list;
      (* per metric: one value per draw, or per repetition for host metrics *)
}

let names ms = List.map (fun m -> m.Metrics.name) ms
let median s name = Stats.median (List.assoc name s.values)

let summarise names (reps : (int * Rep.result) list) =
  let value n (_, r) = List.assoc n r.Rep.metrics in
  let unrepeated = ref [] in
  let per_draw n =
    List.sort_uniq compare (List.map fst reps)
    |> List.map (fun d ->
           match List.map (value n) (List.filter (fun (d', _) -> d' = d) reps) with
           | v :: rest ->
             if List.exists (( <> ) v) rest then unrepeated := (n, d) :: !unrepeated;
             v
           | [] -> assert false)
  in
  let values =
    List.map
      (fun n ->
        if (Metrics.find n).Metrics.kind = Metrics.Host then (n, List.map (value n) reps)
        else (n, per_draw n))
      names
  in
  List.iter
    (fun (n, d) -> Printf.eprintf "%s differs between repetitions of draw %d\n" n d)
    !unrepeated;
  let results = List.map snd reps in
  {
    ok = List.for_all (fun r -> r.Rep.ok) results && !unrepeated = [];
    attempted = List.fold_left (fun a r -> a + r.Rep.attempted) 0 results;
    failed = List.fold_left (fun a r -> a + r.Rep.failed) 0 results;
    samples = List.fold_left (fun a r -> min a r.Rep.samples) max_int results;
    values;
  }

(* End-to-end and per-layer values from the untraced repetitions; the
   traced-only ones from the traced repetitions, and the tracing overhead
   as traced over untraced measured-phase CPU time. *)
let aggregate ~untraced ~traced =
  let from_untraced, from_traced =
    List.partition (fun n -> not (Metrics.traced_only n)) (names Metrics.per_layer)
  in
  let u = summarise (names (Metrics.end_to_end @ Metrics.reference) @ from_untraced) untraced in
  if traced = [] then u
  else
    let t = summarise ("host_s" :: List.filter (( <> ) "trace.overhead_pct") from_traced) traced in
    let overhead = 100. *. ((median t "host_s" /. median u "host_s") -. 1.) in
    {
      ok = u.ok && t.ok;
      attempted = u.attempted + t.attempted;
      failed = u.failed + t.failed;
      samples = min u.samples t.samples;
      values =
        u.values @ List.remove_assoc "host_s" t.values @ [ ("trace.overhead_pct", [ overhead ]) ];
    }

let row s m =
  let vs = List.assoc m.Metrics.name s.values in
  let q1, q3 = Stats.quartiles vs in
  Printf.sprintf "  %-34s %14.6g %-6s [%.6g .. %.6g]" m.Metrics.name (Stats.median vs)
    m.Metrics.unit_ q1 q3

let layer_table ~workload ~seed s =
  String.concat "\n"
    (Printf.sprintf "per-layer metrics of %s, seed %d: median [q1 .. q3]" workload seed
    :: List.map (row s) Metrics.per_layer)
  ^ "\n"

(* ---- the contract mode: one workload, one JSON line ---- *)

let max_reps = 60

let measure_workload workload seed seconds trace out_dir =
  ignore (find_workload workload);
  let t0 = Unix.gettimeofday () in
  let spans = if trace then Some (out_file ~out_dir ~workload ~seed "spans" "jsonl") else None in
  let untraced = ref [] and traced = ref [] in
  let more () =
    let n = List.length !untraced and elapsed = Unix.gettimeofday () -. t0 in
    n < (if trace then 1 else draws)
    || (n < max_reps && elapsed +. (elapsed /. float_of_int n) <= float_of_int seconds)
  in
  while more () do
    let n = List.length !untraced in
    untraced := spawn ~workload ~seed ~scale:1. (if trace then 0 else n mod draws) :: !untraced;
    if trace then traced := spawn ~workload ~seed ~scale:1. ?spans 0 :: !traced
  done;
  let s = aggregate ~untraced:!untraced ~traced:!traced in
  if trace then begin
    let table = layer_table ~workload ~seed s in
    print_string table;
    write_file (out_file ~out_dir ~workload ~seed "layers" "txt") table
  end;
  Printf.printf "%s: %d repetitions%s in %.1f s, at least %d latency samples each\n" workload
    (List.length !untraced)
    (if trace then " and as many traced" else "")
    (Unix.gettimeofday () -. t0)
    s.samples;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" s.ok
    s.attempted s.failed
    (String.concat ", "
       (List.map
          (fun m ->
            Printf.sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" m.Metrics.name
              (median s m.Metrics.name) m.Metrics.unit_)
          (if trace then Metrics.per_layer else Metrics.end_to_end)));
  if not s.ok then exit 1

(* ---- the full run: every workload, every metric ---- *)

let machine () =
  let cpu =
    try
      In_channel.with_open_text "/proc/cpuinfo" In_channel.input_all
      |> String.split_on_char '\n'
      |> List.find (String.starts_with ~prefix:"model name")
      |> fun l -> String.trim (List.nth (String.split_on_char ':' l) 1)
    with _ -> "unknown"
  in
  [
    ("nproc", string_of_int (Domain.recommended_domain_count ()));
    ("cpu", cpu);
    ("ocaml", Sys.ocaml_version);
  ]

(* Two sets agree when every draw's deterministic values are identical
   and every bounded host metric's medians are within the bound. *)
let agree ~workload a b =
  List.for_all
    (fun (name, xs) ->
      let m = Metrics.find name in
      let fine =
        match m.Metrics.kind with
        | Metrics.Host ->
          let x = Stats.median xs and y = median b name in
          m.Metrics.bound = 0. || Float.abs (y -. x) <= m.Metrics.bound *. Float.abs x
        | Metrics.Virtual | Metrics.Count -> xs = List.assoc name b.values
      in
      if not fine then
        Printf.printf "sets disagree on %s %s: %.6g vs %.6g\n" workload name (Stats.median xs)
          (median b name);
      fine)
    a.values

let json_results ~seed ~reps ~repeatable sets =
  let metric s m =
    let vs = List.assoc m.Metrics.name s.values in
    let q1, q3 = Stats.quartiles vs in
    Printf.sprintf "\"%s\": {\"median\": %.17g, \"q1\": %.17g, \"q3\": %.17g, \"unit\": \"%s\"}"
      m.Metrics.name (Stats.median vs) q1 q3 m.Metrics.unit_
  in
  let workload (name, s) =
    Printf.sprintf
      "    \"%s\": {\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"latency_samples\": %d,\n\
      \      \"metrics\": {%s}}"
      name s.ok s.attempted s.failed s.samples
      (String.concat ",\n        "
         (List.filter_map
            (fun m -> if List.mem_assoc m.Metrics.name s.values then Some (metric s m) else None)
            (Metrics.end_to_end @ Metrics.reference @ Metrics.per_layer)))
  in
  Printf.sprintf
    "{\"machine\": {%s},\n\
    \ \"seed\": %d, \"draws\": %d, \"reps\": %d, \"repeatable\": %b,\n\
    \ \"sets\": [\n%s\n ]}\n"
    (String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "\"%s\": \"%s\"" k v) (machine ())))
    seed draws reps repeatable
    (String.concat ",\n"
       (List.map (fun set -> "  {\n" ^ String.concat ",\n" (List.map workload set) ^ "\n  }") sets))

let run seed reps traced sets smoke out out_dir =
  let reps, sets, scale, traced = if smoke then (1, 1, 0.05, false) else (reps, sets, 1., traced) in
  Printf.printf "machine: %s\n"
    (String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k v) (machine ())));
  let run_set set =
    Printf.printf "\n== set %d of %d: seed %d, %d repetition(s) over %d draw(s)%s ==\n%!" set sets
      seed reps (min reps draws)
      (if smoke then ", 1/20 length" else "");
    List.map
      (fun wl ->
        let workload = wl.Workload.name in
        let untraced = List.init reps (fun r -> spawn ~workload ~seed ~scale (r mod draws)) in
        let traced_reps =
          if not traced then []
          else
            let spans = out_file ~out_dir ~workload ~seed "spans" "jsonl" in
            [ spawn ~workload ~seed ~scale ~spans 0 ]
        in
        let s = aggregate ~untraced ~traced:traced_reps in
        Printf.printf "%s: %s, attempted %d, failed %d, error_rate %.6g, >= %d latency samples\n%!"
          workload
          (if s.ok then "correct" else "INCORRECT")
          s.attempted s.failed
          (float_of_int s.failed /. float_of_int (max 1 s.attempted))
          s.samples;
        if not smoke then
          List.iter (fun m -> print_endline (row s m)) (Metrics.end_to_end @ Metrics.reference);
        if traced then begin
          let table = layer_table ~workload ~seed s in
          print_string table;
          write_file (out_file ~out_dir ~workload ~seed "layers" "txt") table
        end;
        (workload, s))
      workloads
  in
  let results = List.init sets (fun i -> run_set (i + 1)) in
  let ok = List.for_all (List.for_all (fun (_, s) -> s.ok)) results in
  let repeatable =
    match results with
    | first :: rest ->
      List.for_all
        (fun other -> List.for_all2 (fun (workload, a) (_, b) -> agree ~workload a b) first other)
        rest
    | [] -> true
  in
  if sets > 1 then
    Printf.printf "\nrepeatability across %d sets: %s\n" sets
      (if repeatable then "agree" else "DISAGREE");
  Option.iter (fun file -> write_file file (json_results ~seed ~reps ~repeatable results)) out;
  if not (ok && repeatable) then exit 1

(* ---- command line ---- *)

open Cmdliner

let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Workload seed.")

let workload_arg =
  Arg.(required & opt (some string) None & info [ "workload" ] ~doc:"Workload name.")

let out_dir =
  Arg.(
    value & opt string "_benchmark"
    & info [ "out-dir" ] ~doc:"Directory for span JSONL files and per-layer tables.")

let workload_term =
  let seconds = Arg.(value & opt int 25 & info [ "seconds" ] ~doc:"Measure for about this long.") in
  let trace =
    Arg.(value & opt int 0 & info [ "trace" ] ~doc:"1: report the per-layer metrics instead.")
  in
  Term.(
    const (fun w s secs t dir -> measure_workload w s secs (t <> 0) dir)
    $ workload_arg $ seed $ seconds $ trace $ out_dir)

let run_cmd =
  let reps = Arg.(value & opt int draws & info [ "reps" ] ~doc:"Repetitions per workload.") in
  let traced =
    Arg.(value & flag & info [ "traced" ] ~doc:"Add a traced repetition of each workload.")
  in
  let sets = Arg.(value & opt int 1 & info [ "sets" ] ~doc:"Run everything this many times.") in
  let smoke =
    Arg.(value & flag & info [ "smoke" ] ~doc:"One 1/20-length repetition each, correctness only.")
  in
  let out =
    Arg.(value & opt (some string) None & info [ "out" ] ~doc:"Write the results as JSON here.")
  in
  Cmd.v (Cmd.info "run" ~doc:"Run every workload.")
    Term.(const run $ seed $ reps $ traced $ sets $ smoke $ out $ out_dir)

let rep_cmd =
  let scale = Arg.(value & opt float 1. & info [ "scale" ] ~doc:"Shrink every phase by this.") in
  let spans =
    Arg.(value & opt (some string) None & info [ "spans" ] ~doc:"Trace, writing spans here.")
  in
  let rep workload seed scale spans =
    Rep.print (Rep.run (find_workload workload) ~seed ~scale ~spans_file:spans)
  in
  Cmd.v (Cmd.info "rep" ~doc:"Run one repetition in this process.")
    Term.(const rep $ workload_arg $ seed $ scale $ spans)

let () =
  exit
    (Cmd.eval
       (Cmd.group ~default:workload_term
          (Cmd.info "main" ~doc:"The repository benchmark.")
          [ run_cmd; rep_cmd ]))
