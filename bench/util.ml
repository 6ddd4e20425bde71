(* Shared benchmark plumbing: simulated worlds, hosts, table printing. *)

module P = Mthread.Promise

(* Worlds and hosts are [Core.World]'s. *)
include Core.World

(* The httperf load generator over the unikernel netstack, shared by the
   web figures (12, 13) and the datapath breakdown. *)
module Httperf = Uhttp.Httperf.Make (Netstack.Device.Tcp)

(* When [capture_worlds] is set, every world made after that point gets a
   wire capture attached to its bridge (collected in [world_captures] so
   the capture guard can close them). The capture-invariance guard flips
   this around a Figure 8 run to prove a live capture changes nothing. *)
let capture_worlds = ref false
let world_captures : Capture.t list ref = ref []

let close_world_captures () =
  List.iter Capture.close !world_captures;
  world_captures := []

let make_world ?seed () =
  let w = create ?seed () in
  if !capture_worlds then begin
    let c = Capture.create ~name:"bench-cap" () in
    Capture.attach_bridge c w.bridge;
    world_captures := c :: !world_captures
  end;
  w

let bs = Bytestruct.of_string

let header title =
  Printf.printf "\n==== %s ====\n" title

let row fmt = Printf.printf fmt

let bar label value unit_ max_value =
  let width = int_of_float (46.0 *. value /. max_value) in
  Printf.printf "  %-34s %8.1f %-8s |%s\n" label value unit_ (String.make (max 0 width) '#')

(* ---- shared --out plumbing ----

   Machine-readable results. Every experiment calls [emit] next to the
   printf that renders the human table; the records accumulate in-process
   (so recording never perturbs the figure stdout) and `--out FILE`
   writes them as JSON lines, one object per data point:

     {"schema": 2, "figure": "fig8",
      "metric": "throughput/Linux to Mirage/1-flow",
      "value": 1693.0, "unit": "Mbps", "seed": 42}

   The seed is the world seed the point was measured under (the harness
   default of 42 unless the experiment sweeps seeds, as chaos does).

   [schema] versions the record format so gates and plotting scripts can
   detect incompatible snapshots; an absent field means version 1
   (identical minus the field). The full field-by-field contract lives
   in EXPERIMENTS.md ("bench --out schema"). Bump [schema_version] on
   any change to the line shape. *)

let schema_version = 2

type result = {
  r_figure : string;
  r_metric : string;
  r_value : float;
  r_unit : string;
  r_seed : int;
}

let results : result list ref = ref []

let emit ~figure ~metric ?(seed = 42) ~unit_ value =
  results :=
    { r_figure = figure; r_metric = metric; r_value = value; r_unit = unit_; r_seed = seed }
    :: !results

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let json_float v =
  if not (Float.is_finite v) then "null"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.6g" v

let out_term =
  let open Cmdliner in
  Arg.(
    value
    & opt (some string) None
    & info [ "out" ] ~docv:"FILE"
        ~doc:
          "Write every measured data point to $(docv) as JSON lines \
           ({\"figure\",\"metric\",\"value\",\"unit\",\"seed\"}), one object per point.")

let with_out out f =
  let out = Plane_cli.open_output out in
  results := [];
  f ();
  match out with
  | None -> ()
  | Some (file, oc) ->
    List.iter
      (fun r ->
        Printf.fprintf oc
          "{\"schema\": %d, \"figure\": \"%s\", \"metric\": \"%s\", \"value\": %s, \"unit\": \
           \"%s\", \"seed\": %d}\n"
          schema_version (json_escape r.r_figure) (json_escape r.r_metric) (json_float r.r_value)
          (json_escape r.r_unit) r.r_seed)
      (List.rev !results);
    close_out oc;
    Printf.printf "\n%d results written to %s\n" (List.length !results) file
