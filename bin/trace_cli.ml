(* Offline analysis of trace JSONL exports (`--trace FILE` on
   `mirage_sim boot/build` and `bench/main.exe`): per-flow latency
   waterfalls, per-layer attribution tables, folded-stack flamegraph
   output and queue-depth timelines.

   Attribution model: each flow's events are rebuilt into intervals.
   Paired Begin/End events and retro spans (End with a dur_ns argument
   and no matching Begin) that describe protocol work — netif.rx,
   tcp.rx, dns.query, http.request, ... — are "layer" intervals; the
   vcpu.wait / vcpu.run retro spans emitted by the domain scheduler are
   background intervals. Sweeping the flow's window over elementary
   slices, each slice is charged to the innermost covering layer
   interval (latest start wins), else to vcpu.run (processing) or
   vcpu.wait (queueing), else to idle/wire. The per-layer sums
   therefore partition the flow's end-to-end latency exactly. *)

module J = Formats.Json

type ev = {
  e_seq : int;
  e_t : int;
  e_dom : int;
  e_cat : string;
  e_name : string;
  e_ph : string;
  e_flow : int;
  e_args : (string * J.t) list;
}

type interval = {
  i_lo : int;
  i_hi : int;
  i_name : string;
  i_cat : string;
  i_dom : int;
}

let num_arg e key =
  match List.assoc_opt key e.e_args with Some (J.Number f) -> Some (int_of_float f) | _ -> None

let parse_line line =
  if String.length (String.trim line) = 0 then None
  else
    match J.parse line with
    | exception J.Parse_error (_, _) -> None
    | J.Object fields as obj -> (
      match J.member "seq" obj with
      | Some (J.Number seq) ->
        let int_of key d = match J.member key obj with Some (J.Number f) -> int_of_float f | _ -> d in
        let str_of key d = match J.member key obj with Some (J.String s) -> s | _ -> d in
        let args =
          match J.member "args" obj with Some (J.Object kvs) -> kvs | _ -> []
        in
        ignore fields;
        Some
          {
            e_seq = int_of_float seq;
            e_t = int_of "t" 0;
            e_dom = int_of "dom" (-1);
            e_cat = str_of "cat" "?";
            e_name = str_of "name" "?";
            e_ph = str_of "ph" "I";
            e_flow = int_of "flow" (-1);
            e_args = args;
          }
      | _ -> None (* counter / span summary lines *))
    | _ -> None

let load file =
  let ic = try open_in file with Sys_error e -> Printf.eprintf "%s\n" e; exit 1 in
  let evs = ref [] in
  (try
     while true do
       match parse_line (input_line ic) with
       | Some e -> evs := e :: !evs
       | None -> ()
     done
   with End_of_file -> close_in ic);
  List.rev !evs

(* flow id -> events sorted by (time, seq) *)
let flows_of evs =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun e ->
      if e.e_flow >= 0 then
        Hashtbl.replace tbl e.e_flow (e :: (Option.value ~default:[] (Hashtbl.find_opt tbl e.e_flow))))
    evs;
  Hashtbl.fold
    (fun fl l acc ->
      (fl, List.sort (fun a b -> compare (a.e_t, a.e_seq) (b.e_t, b.e_seq)) l) :: acc)
    tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* Rebuild intervals from one flow's event list: B/E pairing per
   (dom, name) with a stack; an unmatched End is a retro span covering
   [end - dur_ns, end], where end is the event timestamp minus the
   lag_ns argument when present (vcpu.wait places its interval back at
   the enqueue-to-dispatch gap). *)
let intervals_of evs =
  let open_spans = Hashtbl.create 16 in
  let acc = ref [] in
  List.iter
    (fun e ->
      match e.e_ph with
      | "B" -> Hashtbl.add open_spans (e.e_dom, e.e_name) e.e_t
      | "E" -> (
        let key = (e.e_dom, e.e_name) in
        match Hashtbl.find_opt open_spans key with
        | Some t0 ->
          Hashtbl.remove open_spans key;
          acc := { i_lo = t0; i_hi = e.e_t; i_name = e.e_name; i_cat = e.e_cat; i_dom = e.e_dom } :: !acc
        | None ->
          let dur = Option.value ~default:0 (num_arg e "dur_ns") in
          let hi = e.e_t - Option.value ~default:0 (num_arg e "lag_ns") in
          acc :=
            { i_lo = hi - dur; i_hi = hi; i_name = e.e_name; i_cat = e.e_cat; i_dom = e.e_dom }
            :: !acc)
      | _ -> ())
    evs;
  List.rev !acc

let is_vcpu i = String.length i.i_name >= 5 && String.sub i.i_name 0 5 = "vcpu."

let window evs intervals =
  let lo = ref max_int and hi = ref min_int in
  List.iter
    (fun e ->
      if e.e_t < !lo then lo := e.e_t;
      if e.e_t > !hi then hi := e.e_t)
    evs;
  List.iter
    (fun i ->
      if i.i_lo < !lo then lo := i.i_lo;
      if i.i_hi > !hi then hi := i.i_hi)
    intervals;
  if !lo > !hi then (0, 0) else (!lo, !hi)

(* Sweep the window's elementary slices: [f ns covering] for each slice
   of positive length [ns], with the intervals covering all of it. The
   slices partition [lo, hi] exactly. *)
let sweep_slices intervals ~lo ~hi f =
  let module IS = Set.Make (Int) in
  let pts =
    List.fold_left
      (fun s i -> IS.add (max lo (min hi i.i_lo)) (IS.add (max lo (min hi i.i_hi)) s))
      (IS.add lo (IS.add hi IS.empty))
      intervals
    |> IS.elements
  in
  let rec sweep = function
    | a :: (b :: _ as rest) ->
      if b > a then f (b - a) (List.filter (fun i -> i.i_lo <= a && i.i_hi >= b) intervals);
      sweep rest
    | _ -> ()
  in
  sweep pts

(* The scheduler state under a slice with no layer interval: vcpu.run
   (processing) over vcpu.wait (queueing), else none. *)
let background covering =
  if List.exists (fun i -> i.i_name = "vcpu.run") covering then Some "vcpu.run"
  else if List.exists (fun i -> i.i_name = "vcpu.wait") covering then Some "vcpu.wait"
  else None

(* Return (layer, ns) tallies over the window's slices; they partition
   [lo, hi] exactly. *)
let attribute intervals ~lo ~hi =
  let tally = Hashtbl.create 16 in
  let add layer ns =
    Hashtbl.replace tally layer (ns + Option.value ~default:0 (Hashtbl.find_opt tally layer))
  in
  sweep_slices intervals ~lo ~hi (fun ns covering ->
      match List.filter (fun i -> not (is_vcpu i)) covering with
      | first :: rest ->
        (* innermost: latest start; break ties by name for determinism *)
        let innermost =
          List.fold_left
            (fun best i -> if (i.i_lo, i.i_name) > (best.i_lo, best.i_name) then i else best)
            first rest
        in
        add innermost.i_name ns
      | [] -> add (Option.value ~default:"idle/wire" (background covering)) ns);
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tally [] |> List.sort compare

(* ---- report ---- *)

let pct h p = Trace.Hist.percentile h p

let report file max_flows =
  let evs = load file in
  let flows = flows_of evs in
  if flows = [] then begin
    Printf.printf "no flow-tagged events in %s (was tracing enabled?)\n" file;
    exit 0
  end;
  let analysed =
    List.map
      (fun (fl, evs) ->
        let ivs = intervals_of evs in
        let lo, hi = window evs ivs in
        (fl, evs, ivs, lo, hi, attribute ivs ~lo ~hi))
      flows
  in
  (* aggregate per layer: total ns and a histogram of per-flow values *)
  let layer_tbl = Hashtbl.create 16 in
  let grand_total = ref 0 in
  let worst_err = ref 0.0 in
  List.iter
    (fun (_, _, _, lo, hi, tallies) ->
      let e2e = hi - lo in
      let sum = List.fold_left (fun a (_, ns) -> a + ns) 0 tallies in
      if e2e > 0 then
        worst_err := Float.max !worst_err (Float.abs (float_of_int (sum - e2e) /. float_of_int e2e));
      grand_total := !grand_total + e2e;
      List.iter
        (fun (layer, ns) ->
          let tot, h =
            match Hashtbl.find_opt layer_tbl layer with
            | Some x -> x
            | None ->
              let x = (ref 0, Trace.Hist.create ()) in
              Hashtbl.add layer_tbl layer x;
              x
          in
          tot := !tot + ns;
          Trace.Hist.record h ns)
        tallies)
    analysed;
  Printf.printf "trace: %s\n" file;
  Printf.printf "flows: %d   total traced latency: %.3f ms   worst flow sum error: %.4f%%\n\n"
    (List.length flows)
    (float_of_int !grand_total /. 1e6)
    (100.0 *. !worst_err);
  Printf.printf "per-layer breakdown (all flows):\n";
  Printf.printf "  %-18s %7s %9s %6s %10s %10s %10s\n" "layer" "flows" "total_us" "share" "p50_ns"
    "p95_ns" "p99_ns";
  let rows =
    Hashtbl.fold (fun layer (tot, h) acc -> (layer, !tot, h) :: acc) layer_tbl []
    |> List.sort (fun (na, ta, _) (nb, tb, _) -> compare (tb, na) (ta, nb))
  in
  List.iter
    (fun (layer, tot, h) ->
      Printf.printf "  %-18s %7d %9.1f %5.1f%% %10.0f %10.0f %10.0f\n" layer (Trace.Hist.count h)
        (float_of_int tot /. 1e3)
        (100.0 *. float_of_int tot /. float_of_int (max 1 !grand_total))
        (pct h 50.) (pct h 95.) (pct h 99.))
    rows;
  (* per-flow detail for the longest flows *)
  let by_dur =
    List.sort
      (fun (fa, _, _, la, ha, _) (fb, _, _, lb, hb, _) -> compare (hb - lb, fa) (ha - la, fb))
      analysed
  in
  let shown = ref 0 in
  Printf.printf "\nslowest flows (showing up to %d):\n" max_flows;
  List.iter
    (fun (fl, _, _, lo, hi, tallies) ->
      if !shown < max_flows then begin
        incr shown;
        let e2e = hi - lo in
        let sum = List.fold_left (fun a (_, ns) -> a + ns) 0 tallies in
        Printf.printf "  flow %-5d end-to-end %8d ns  (layer sum %8d ns)\n" fl e2e sum;
        List.iter
          (fun (layer, ns) ->
            Printf.printf "    %-18s %8d ns %5.1f%%\n" layer ns
              (100.0 *. float_of_int ns /. float_of_int (max 1 e2e)))
          (List.sort (fun (na, a) (nb, b) -> compare (b, na) (a, nb)) tallies)
      end)
    by_dur

(* ---- waterfall ---- *)

let waterfall file max_flows =
  let evs = load file in
  let flows = flows_of evs in
  if flows = [] then begin
    Printf.printf "no flow-tagged events in %s (was tracing enabled?)\n" file;
    exit 0
  end;
  let width = 56 in
  let shown = ref 0 in
  List.iter
    (fun (fl, evs) ->
      if !shown < max_flows then begin
        incr shown;
        let ivs = intervals_of evs in
        let lo, hi = window evs ivs in
        let span = max 1 (hi - lo) in
        Printf.printf "flow %d: %d ns (t=%d..%d)\n" fl (hi - lo) lo hi;
        let ivs = List.sort (fun a b -> compare (a.i_lo, a.i_hi, a.i_name) (b.i_lo, b.i_hi, b.i_name)) ivs in
        List.iter
          (fun i ->
            let c0 = (i.i_lo - lo) * width / span in
            let c1 = max (c0 + 1) ((i.i_hi - lo) * width / span) in
            let c1 = min c1 width in
            let bar =
              String.concat ""
                [ String.make c0 ' '; String.make (c1 - c0) '#'; String.make (width - c1) ' ' ]
            in
            Printf.printf "  %-18s d%-2d |%s| %8d ns\n" i.i_name i.i_dom bar (i.i_hi - i.i_lo))
          ivs;
        print_newline ()
      end)
    flows

(* ---- flamegraph (folded stacks) ---- *)

let flame file =
  let evs = load file in
  let flows = flows_of evs in
  let stacks = Hashtbl.create 64 in
  let add stack ns =
    Hashtbl.replace stacks stack (ns + Option.value ~default:0 (Hashtbl.find_opt stacks stack))
  in
  List.iter
    (fun (_, evs) ->
      let ivs = intervals_of evs in
      let lo, hi = window evs ivs in
      sweep_slices ivs ~lo ~hi (fun ns covering ->
          let frames =
            List.filter (fun i -> not (is_vcpu i)) covering
            |> List.sort (fun x y ->
                   compare (x.i_lo, -x.i_hi, x.i_name) (y.i_lo, -y.i_hi, y.i_name))
            |> List.map (fun i -> i.i_name)
          in
          let frames =
            match background covering with
            | Some bg -> frames @ [ bg ]
            | None -> if frames = [] then [ "idle/wire" ] else frames
          in
          add (String.concat ";" ("flow" :: frames)) ns))
    flows;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) stacks []
  |> List.sort compare
  |> List.iter (fun (stack, ns) -> Printf.printf "%s %d\n" stack ns)

(* ---- queue-depth timelines ---- *)

let queues file buckets =
  let evs = load file in
  let samples =
    List.filter_map
      (fun e ->
        match (num_arg e "pending", num_arg e "qlen") with
        | Some v, _ | _, Some v -> Some (e.e_name, e.e_t, v)
        | None, None -> None)
      evs
  in
  if samples = [] then begin
    Printf.printf "no queue-depth samples in %s\n" file;
    exit 0
  end;
  let lo = List.fold_left (fun a (_, t, _) -> min a t) max_int samples in
  let hi = List.fold_left (fun a (_, t, _) -> max a t) min_int samples in
  let span = max 1 (hi - lo) in
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (name, t, v) ->
      let arr =
        match Hashtbl.find_opt tbl name with
        | Some a -> a
        | None ->
          let a = Array.make buckets 0 in
          Hashtbl.add tbl name a;
          a
      in
      let b = min (buckets - 1) ((t - lo) * buckets / span) in
      arr.(b) <- max arr.(b) v)
    samples;
  let glyphs = " .:-=+*#%@" in
  Printf.printf "queue depth (max per bucket), t=%d..%d ns, %d buckets:\n" lo hi buckets;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort compare
  |> List.iter (fun (name, arr) ->
         let vmax = Array.fold_left max 1 arr in
         let line =
           String.init buckets (fun i ->
               glyphs.[min (String.length glyphs - 1) (arr.(i) * (String.length glyphs - 1) / vmax)])
         in
         Printf.printf "  %-18s max %4d |%s|\n" name vmax line)

(* ---- cmdliner wiring ---- *)

open Cmdliner

let file_arg = Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE")

let flows_arg =
  Arg.(value & opt int 5 & info [ "flows" ] ~docv:"N" ~doc:"How many flows to detail.")

let report_cmd =
  let doc = "Per-flow, per-layer latency attribution from a trace export" in
  Cmd.v (Cmd.info "report" ~doc) Term.(const report $ file_arg $ flows_arg)

let waterfall_cmd =
  let doc = "ASCII waterfall of each flow's spans on the virtual timeline" in
  Cmd.v (Cmd.info "waterfall" ~doc) Term.(const waterfall $ file_arg $ flows_arg)

let flame_cmd =
  let doc = "Folded-stack (flamegraph.pl compatible) output, ns as sample counts" in
  Cmd.v (Cmd.info "flame" ~doc) Term.(const flame $ file_arg)

let queues_cmd =
  let doc = "Queue-depth timelines from dispatch/buffer samples" in
  let buckets = Arg.(value & opt int 60 & info [ "buckets" ] ~docv:"N") in
  Cmd.v (Cmd.info "queues" ~doc) Term.(const queues $ file_arg $ buckets)

let cmd =
  let doc = "Analyse a JSONL trace produced with --trace" in
  Cmd.group (Cmd.info "trace" ~doc) [ report_cmd; waterfall_cmd; flame_cmd; queues_cmd ]
