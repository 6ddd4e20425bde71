(* Generates the pinned trace and profiles for the golden CLI tests in
   this directory: a tiny deterministic scenario (two PV guests on one
   bridge, HTTP exchanges and a ping, seed 11) traced and profiled end
   to end and written as JSON lines.

   The committed golden_trace.jsonl, golden_profile.jsonl and
   golden_profile_b.jsonl are this program's output (the B profile is a
   second run with more requests and no ping — the `profile diff`
   input). The CLI renderings (waterfall/flame/queues for `trace`,
   profile_top/profile_folded/profile_diff for `profile`) are diffed by
   `dune runtest`, which also re-runs this program and diffs the trace
   it writes against golden_trace.jsonl, and the folded rendering of the
   profile it writes against profile_folded.expected. If a schema or an analysis
   changes legitimately, regenerate with

     dune exec test/golden/gen_golden.exe -- test/golden/golden_trace.jsonl \
       test/golden/golden_profile.jsonl test/golden/golden_profile_b.jsonl

   and promote the new expectations with `dune promote`. (Profile alloc
   bytes are real GC allocation of gen_golden.exe — regenerating under a
   different compiler legitimately shifts them.) *)

module P = Mthread.Promise

let ( >>= ) = P.bind

(* Two PV guests on one bridge; the server answers [gets] HTTP GETs from
   the client, then optionally one ping. *)
let scenario ~gets ~ping =
  let w = Core.World.create ~seed:11 () in
  let sim = w.Core.World.sim in
  let s = Core.World.host w ~name:"server" ~ip:"10.0.0.2" () in
  let server = s.Core.World.stack in
  let client = (Core.World.host w ~name:"client" ~ip:"10.0.0.9" ()).Core.World.stack in
  ignore
    (Core.Apps.Net.Http.create sim ~dom:s.Core.World.dom ~tcp:(Netstack.Stack.tcp server) ~port:80
       (fun _req -> P.return (Uhttp.Http_wire.response ~status:200 (String.make 256 'x'))));
  let dst = Netstack.Stack.address server in
  P.run sim
    (let rec get n =
       if n = 0 then P.return ()
       else
         Core.Apps.Net.Http_client.get_once (Netstack.Stack.tcp client) ~dst ~port:80 "/"
         >>= fun _ -> P.sleep sim (Engine.Sim.ms 1) >>= fun () -> get (n - 1)
     in
     get gets >>= fun () ->
     if ping then
       Netstack.Icmp4.ping (Netstack.Stack.icmp client) ~dst ~seq:1 () >>= fun _ -> P.return ()
     else P.return ())

let () =
  let arg i d = if Array.length Sys.argv > i then Sys.argv.(i) else d in
  let file = arg 1 "golden_trace.jsonl" in
  let profile_a = arg 2 "golden_profile.jsonl" in
  let profile_b = arg 3 "golden_profile_b.jsonl" in
  Trace.enable ~capacity:65536 ();
  Trace.Prof.enable ();
  scenario ~gets:3 ~ping:true;
  Plane_cli.Trace_report.write_jsonl (open_out file);
  Plane_cli.Trace_report.write_profile (open_out profile_a);
  Printf.eprintf "wrote %s (%d events), %s\n" file (List.length (Trace.events ())) profile_a;
  (* Run B: same world, more work — the `profile diff` golden input. *)
  Trace.Prof.reset ();
  scenario ~gets:5 ~ping:false;
  Plane_cli.Trace_report.write_profile (open_out profile_b);
  Printf.eprintf "wrote %s\n" profile_b
