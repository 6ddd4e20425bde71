(* Offline analysis of profile JSONL exports (`--profile FILE` on
   `mirage_sim boot` and `bench/main.exe`, or
   [Plane_cli.Trace_report.write_profile]): a top-style per-domain/per-layer
   vCPU attribution table, folded-stack output feeding the same
   flamegraph.pl path as `trace flame`, and a diff mode comparing two
   profiles for before/after optimization reports.

   The profiler attributes every charged vCPU nanosecond to the ambient
   layer stack (see Trace.Prof), so per-stack run times sum to total vCPU
   time exactly and folded stacks merge by summation — which is what
   makes [diff] meaningful. *)

module J = Formats.Json

type prow = { p_dom : int; p_stack : string; p_run : int; p_wait : int; p_samples : int }

let parse_line line =
  if String.length (String.trim line) = 0 then `Skip
  else
    match J.parse line with
    | exception J.Parse_error (_, _) -> `Skip
    | obj -> (
      let int_of p key d =
        match J.member key p with Some (J.Number f) -> int_of_float f | _ -> d
      in
      let float_of p key d = match J.member key p with Some (J.Number f) -> f | _ -> d in
      let str_of p key d = match J.member key p with Some (J.String s) -> s | _ -> d in
      match J.member "prof" obj with
      | Some (J.Object _ as p) ->
        `Prof
          {
            p_dom = int_of p "dom" (-1);
            p_stack = str_of p "stack" "?";
            p_run = int_of p "run_ns" 0;
            p_wait = int_of p "wait_ns" 0;
            p_samples = int_of p "samples" 0;
          }
      | _ -> (
        match J.member "dpath" obj with
        | Some (J.Object _ as p) ->
          (* (hop, pkts, vcpu_ns, alloc_bytes): a Plane_cli.Trace_report.hop_table row *)
          `Dpath
            ( str_of p "hop" "?",
              int_of p "pkts" 0,
              int_of p "vcpu_ns" 0,
              float_of p "alloc_bytes" 0. )
        | _ -> `Skip))

let load file =
  let ic =
    try open_in file
    with Sys_error e ->
      Printf.eprintf "%s\n" e;
      exit 1
  in
  let ps = ref [] and ds = ref [] in
  (try
     while true do
       match parse_line (input_line ic) with
       | `Prof p -> ps := p :: !ps
       | `Dpath d -> ds := d :: !ds
       | `Skip -> ()
     done
   with End_of_file -> close_in ic);
  (List.rev !ps, List.rev !ds)

let total_run ps = List.fold_left (fun a p -> a + p.p_run) 0 ps
let share total ns = if total = 0 then 0. else 100. *. float_of_int ns /. float_of_int total

(* ---- top ---- *)

let top file limit =
  let ps, ds = load file in
  if ps = [] && ds = [] then begin
    Printf.printf "no profile rows in %s (was the profiler enabled?)\n" file;
    exit 0
  end;
  let total = total_run ps in
  Printf.printf "profile: %s\n" file;
  Printf.printf "total vcpu: %.3f ms across %d stacks\n\n" (float_of_int total /. 1e6)
    (List.length ps);
  (* per-domain rollup *)
  let doms = Hashtbl.create 8 in
  List.iter
    (fun p ->
      let run, wait =
        Option.value ~default:(0, 0) (Hashtbl.find_opt doms p.p_dom)
      in
      Hashtbl.replace doms p.p_dom (run + p.p_run, wait + p.p_wait))
    ps;
  if Hashtbl.length doms > 0 then begin
    Printf.printf "per-domain:\n  %5s %12s %7s %12s\n" "dom" "run_us" "share" "wait_us";
    Hashtbl.fold (fun dom (run, wait) acc -> (dom, run, wait) :: acc) doms []
    |> List.sort (fun (da, ra, _) (db, rb, _) -> compare (rb, da) (ra, db))
    |> List.iter (fun (dom, run, wait) ->
           Printf.printf "  %5d %12.1f %6.1f%% %12.1f\n" dom
             (float_of_int run /. 1e3)
             (share total run)
             (float_of_int wait /. 1e3));
    print_newline ()
  end;
  (* per-layer rollup: leaf frame of each stack *)
  let leaf stack =
    match String.rindex_opt stack ';' with
    | Some i -> String.sub stack (i + 1) (String.length stack - i - 1)
    | None -> stack
  in
  let layers = Hashtbl.create 8 in
  List.iter
    (fun p ->
      let l = leaf p.p_stack in
      Hashtbl.replace layers l (p.p_run + Option.value ~default:0 (Hashtbl.find_opt layers l)))
    ps;
  if Hashtbl.length layers > 0 then begin
    Printf.printf "per-layer (leaf frame):\n  %-12s %12s %7s\n" "layer" "run_us" "share";
    Hashtbl.fold (fun l run acc -> (l, run) :: acc) layers []
    |> List.sort (fun (la, ra) (lb, rb) -> compare (rb, la) (ra, lb))
    |> List.iter (fun (l, run) ->
           Printf.printf "  %-12s %12.1f %6.1f%%\n" l (float_of_int run /. 1e3) (share total run));
    print_newline ()
  end;
  if ps <> [] then begin
    Printf.printf "per-stack (top %d by run time):\n  %-44s %5s %12s %7s %12s %9s\n" limit "stack"
      "dom" "run_us" "share" "wait_us" "samples";
    let rows =
      List.sort (fun a b -> compare (b.p_run, a.p_stack, a.p_dom) (a.p_run, b.p_stack, b.p_dom)) ps
    in
    List.iteri
      (fun i p ->
        if i < limit then
          Printf.printf "  %-44s %5d %12.1f %6.1f%% %12.1f %9d\n" p.p_stack p.p_dom
            (float_of_int p.p_run /. 1e3)
            (share total p.p_run)
            (float_of_int p.p_wait /. 1e3)
            p.p_samples)
      rows;
    print_newline ()
  end;
  if ds <> [] then begin
    print_string "datapath (per packet):\n";
    print_string (Plane_cli.Trace_report.hop_table ds)
  end

(* ---- folded stacks ---- *)

let folded file =
  let ps, _ = load file in
  if ps = [] then begin
    Printf.printf "no profile rows in %s (was the profiler enabled?)\n" file;
    exit 0
  end;
  (* Same folded format as `trace flame`: [stack ns] per line, one frame
     per semicolon, so flamegraph.pl consumes either directly. The domain
     becomes the root frame. *)
  List.map
    (fun p ->
      let root = if p.p_dom < 0 then "unattributed" else Printf.sprintf "dom%d" p.p_dom in
      (Printf.sprintf "%s;%s" root p.p_stack, p.p_run))
    ps
  |> List.sort compare
  |> List.iter (fun (stack, ns) -> Printf.printf "%s %d\n" stack ns)

(* ---- diff ---- *)

let diff file_a file_b limit =
  let pa, da = load file_a in
  let pb, db = load file_b in
  let keys = Hashtbl.create 64 in
  let index ps =
    let tbl = Hashtbl.create 64 in
    List.iter
      (fun p ->
        Hashtbl.replace keys (p.p_dom, p.p_stack) ();
        Hashtbl.replace tbl (p.p_dom, p.p_stack) p)
      ps;
    tbl
  in
  let ta = index pa and tb = index pb in
  let tot_a = total_run pa and tot_b = total_run pb in
  Printf.printf "profile diff: %s -> %s\n" file_a file_b;
  Printf.printf "total vcpu: %.3f ms -> %.3f ms (%s)\n\n" (float_of_int tot_a /. 1e6)
    (float_of_int tot_b /. 1e6)
    (if tot_a = 0 then if tot_b = 0 then "+0.0%" else "new"
     else Printf.sprintf "%+.1f%%" (100. *. float_of_int (tot_b - tot_a) /. float_of_int tot_a));
  let rows =
    Hashtbl.fold
      (fun ((dom, stack) as k) () acc ->
        let run t = match Hashtbl.find_opt t k with Some p -> p.p_run | None -> 0 in
        let a = run ta and b = run tb in
        (dom, stack, a, b, b - a) :: acc)
      keys []
    |> List.sort (fun (da, sa, _, _, xa) (db, sb, _, _, xb) ->
           compare (abs xb, sa, da) (abs xa, sb, db))
  in
  Printf.printf "per-stack (top %d by |delta|):\n  %-44s %5s %12s %12s %12s %8s\n" limit "stack"
    "dom" "a_us" "b_us" "delta_us" "delta";
  List.iteri
    (fun i (dom, stack, a, b, d) ->
      if i < limit then
        let pct =
          if a = 0 then if d = 0 then "+0.0%" else "new"
          else Printf.sprintf "%+.1f%%" (100. *. float_of_int d /. float_of_int a)
        in
        Printf.printf "  %-44s %5d %12.1f %12.1f %+12.1f %8s\n" stack dom (float_of_int a /. 1e3)
          (float_of_int b /. 1e3) (float_of_int d /. 1e3) pct)
    rows;
  (* datapath per-packet deltas *)
  if da <> [] || db <> [] then begin
    let hop_tbl side = List.fold_left (fun acc ((hop, _, _, _) as d) -> (hop, d) :: acc) [] side in
    let ha = hop_tbl da and hb = hop_tbl db in
    let hops = List.sort_uniq compare (List.map (fun (hop, _, _, _) -> hop) (da @ db)) in
    Printf.printf "\ndatapath (vcpu-ns/pkt, alloc-b/pkt):\n  %-10s %14s %14s %14s %14s\n" "hop"
      "a_ns" "b_ns" "a_alloc" "b_alloc";
    List.iter
      (fun hop ->
        let per side =
          match List.assoc_opt hop side with
          | Some (_, pkts, vcpu_ns, alloc_b) when pkts > 0 ->
            let n = float_of_int pkts in
            (float_of_int vcpu_ns /. n, alloc_b /. n)
          | _ -> (0., 0.)
        in
        let na, aa = per ha and nb, ab = per hb in
        Printf.printf "  %-10s %14.1f %14.1f %14.1f %14.1f\n" hop na nb aa ab)
      hops
  end

(* ---- cmdliner wiring ---- *)

open Cmdliner

let file_arg = Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE")
let file_b_arg = Arg.(required & pos 1 (some string) None & info [] ~docv:"FILE_B")

let limit_arg =
  Arg.(value & opt int 30 & info [ "limit" ] ~docv:"N" ~doc:"How many rows to show.")

let top_cmd =
  let doc = "Top-style per-domain/per-layer vCPU attribution table" in
  Cmd.v (Cmd.info "top" ~doc) Term.(const top $ file_arg $ limit_arg)

let folded_cmd =
  let doc = "Folded-stack (flamegraph.pl compatible) output, vCPU ns as sample counts" in
  Cmd.v (Cmd.info "folded" ~doc) Term.(const folded $ file_arg)

let diff_cmd =
  let doc = "Compare two profiles: per-stack vCPU deltas and datapath per-packet costs" in
  Cmd.v (Cmd.info "diff" ~doc) Term.(const diff $ file_arg $ file_b_arg $ limit_arg)

let cmd =
  let doc = "Analyse a JSONL profile produced with --profile" in
  Cmd.group (Cmd.info "profile" ~doc) [ top_cmd; folded_cmd; diff_cmd ]
