(* Real (wall-clock) microbenchmarks of the hot paths, via Bechamel: the
   protocol implementations themselves, not the simulation's cost models.
   Includes the paper's 4.2 comparison of the two DNS label-compression
   table implementations. *)

open Bechamel
open Toolkit

let dns_response =
  let zone = Dns.Zone.synthesize ~origin:"bench.zone" ~entries:1000 in
  let db = Dns.Db.of_zone zone in
  Dns.Db.answer db ~id:7
    { Dns.Dns_wire.qname = Dns.Dns_name.of_string "host-123.bench.zone"; qtype = Dns.Dns_wire.A }

let encoded_response = Dns.Dns_wire.encode dns_response

let test_dns_encode_fmap =
  Test.make ~name:"dns encode (functional map)"
    (Staged.stage (fun () -> ignore (Dns.Dns_wire.encode ~impl:Dns.Compress.Fmap dns_response)))

let test_dns_encode_hashtable =
  Test.make ~name:"dns encode (hashtable)"
    (Staged.stage (fun () ->
         ignore (Dns.Dns_wire.encode ~impl:Dns.Compress.Hashtable dns_response)))

let test_dns_decode =
  Test.make ~name:"dns decode"
    (Staged.stage (fun () -> ignore (Dns.Dns_wire.decode encoded_response)))

let checksum_payload = Bytestruct.of_string (String.init 1460 (fun i -> Char.chr (i land 0xff)))

let test_checksum =
  Test.make ~name:"tcp checksum 1460B"
    (Staged.stage (fun () -> ignore (Netstack.Checksum.ones_complement checksum_payload)))

let test_tcp_encode =
  let seg =
    { Netstack.Tcp_wire.src_port = 80; dst_port = 5001;
      seq = Netstack.Tcp_wire.Seq.of_int 12345; ack = Netstack.Tcp_wire.Seq.of_int 99;
      flags = { Netstack.Tcp_wire.flags_none with ack = true; psh = true };
      window = 0xffff; options = []; payload = checksum_payload }
  in
  let src = Netstack.Ipaddr.v4 10 0 0 1 and dst = Netstack.Ipaddr.v4 10 0 0 2 in
  Test.make ~name:"tcp segment encode 1460B"
    (Staged.stage (fun () -> ignore (Netstack.Tcp_wire.encode ~src ~dst seg)))

let ring_page = Bytestruct.create 4096

let test_ring_cycle =
  Test.make ~name:"xen ring request+response cycle"
    (Staged.stage
       (let sring = Xensim.Ring.Sring.init ring_page ~slot_bytes:16 in
        let front = Xensim.Ring.Front.init sring in
        let back = Xensim.Ring.Back.init (Xensim.Ring.Sring.attach ring_page ~slot_bytes:16) in
        fun () ->
          let slot = Xensim.Ring.Front.next_request front in
          Bytestruct.LE.set_uint32 slot 0 1l;
          ignore (Xensim.Ring.Front.push_requests_and_check_notify front);
          ignore (Xensim.Ring.Back.consume_requests back (fun _ -> ()));
          ignore (Xensim.Ring.Back.next_response back);
          ignore (Xensim.Ring.Back.push_responses_and_check_notify back);
          ignore (Xensim.Ring.Front.consume_responses front (fun _ -> ()))))

let test_of_flow_mod =
  let fm =
    { Openflow.Of_wire.fm_match =
        Openflow.Of_wire.match_l2 ~in_port:1 ~dl_src:(Netsim.mac_of_int 1)
          ~dl_dst:(Netsim.mac_of_int 2);
      cookie = 0L; command = `Add; idle_timeout = 60; hard_timeout = 0; priority = 100;
      buffer_id = 1l; fm_actions = [ Openflow.Of_wire.Output 2 ] }
  in
  Test.make ~name:"openflow flow_mod encode"
    (Staged.stage (fun () -> ignore (Openflow.Of_wire.encode ~xid:1 (Openflow.Of_wire.Flow_mod fm))))

let test_http_parse_render =
  let req =
    { Uhttp.Http_wire.meth = Uhttp.Http_wire.GET; path = "/tweets/alice"; version = "HTTP/1.1";
      headers = [ ("host", "example.org"); ("user-agent", "bench") ]; body = "" }
  in
  Test.make ~name:"http request render"
    (Staged.stage (fun () -> ignore (Uhttp.Http_wire.render_request req)))

let test_json_parse =
  let doc =
    Formats.Json.to_string
      (Formats.Json.Array
         (List.init 20 (fun i ->
              Formats.Json.Object
                [ ("id", Formats.Json.Number (float_of_int i));
                  ("text", Formats.Json.String "some tweet text here") ])))
  in
  Test.make ~name:"json parse 20-element feed"
    (Staged.stage (fun () -> ignore (Formats.Json.parse doc)))

(* The adversarial case of 4.2: a response full of names sharing long
   suffixes, where the compression table does real work. *)
let big_response =
  let o = Dns.Dns_name.of_string "deeply.nested.zone.example.com" in
  {
    Dns.Dns_wire.id = 1;
    flags = Dns.Dns_wire.response_flags ~aa:true ~rcode:Dns.Dns_wire.No_error;
    questions = [ { Dns.Dns_wire.qname = Dns.Dns_name.cons "q" o; qtype = Dns.Dns_wire.ANY } ];
    answers =
      List.init 40 (fun i ->
          {
            Dns.Dns_wire.name = Dns.Dns_name.cons (Printf.sprintf "host-%d" i) o;
            ttl = 60;
            rdata = Dns.Dns_wire.A_data (Netstack.Ipaddr.v4 10 0 (i / 256) (i land 255));
          });
    authorities = [];
    additionals = [];
  }

let test_compress_fmap_big =
  Test.make ~name:"dns encode 40-answer (functional map)"
    (Staged.stage (fun () -> ignore (Dns.Dns_wire.encode ~impl:Dns.Compress.Fmap big_response)))

let test_compress_hash_big =
  Test.make ~name:"dns encode 40-answer (hashtable)"
    (Staged.stage (fun () ->
         ignore (Dns.Dns_wire.encode ~impl:Dns.Compress.Hashtable big_response)))

(* dns_udp's shape: a 100 000-name zone with names drawn at random, so
   table and memo probes miss the CPU caches as the workload's do. A hit
   is the memo probe plus the id patch; a miss is the database answer
   and its encode. *)
let zone_100k_tests () =
  let entries = 100_000 in
  let db = Dns.Db.of_zone (Dns.Zone.synthesize ~origin:"bench.zone" ~entries) in
  let names =
    Array.init entries (fun i -> Dns.Dns_name.of_string (Printf.sprintf "host-%d.bench.zone" i))
  in
  let memo = Dns.Memo.create () in
  Array.iter
    (fun qname ->
      let q = { Dns.Dns_wire.qname; qtype = Dns.Dns_wire.A } in
      Dns.Memo.add memo ~qname ~qtype:Dns.Dns_wire.A (Dns.Dns_wire.encode (Dns.Db.answer db ~id:7 q)))
    names;
  let state = ref 1 in
  let draw () =
    state := ((!state * 1103515245) + 12345) land 0x3fff_ffff;
    names.((!state lsr 4) mod entries)
  in
  [
    Test.make ~name:"dns memo hit (100k-name zone)"
      (Staged.stage (fun () ->
           match Dns.Memo.find memo ~qname:(draw ()) ~qtype:Dns.Dns_wire.A with
           | Some cached -> Dns.Dns_wire.patch_id cached 9
           | None -> assert false));
    Test.make ~name:"dns miss: lookup+encode (100k-name zone)"
      (Staged.stage (fun () ->
           let q = { Dns.Dns_wire.qname = draw (); qtype = Dns.Dns_wire.A } in
           ignore (Dns.Dns_wire.encode (Dns.Db.answer db ~id:9 q))));
  ]

(* The event set's hold model: take the earliest event and push it back
   a pseudo-random increment later, so the pending count stays fixed.
   128 pending is about dns_udp's peak, 2500 bulk_tcp's. *)
let test_eventq_hold pending =
  let q = Engine.Eventq.create () in
  let state = ref 1 in
  let increment () =
    state := ((!state * 1103515245) + 12345) land 0x3fff_ffff;
    1 + (!state lsr 10)
  in
  for _ = 1 to pending do
    ignore (Engine.Eventq.push q ~time:(increment ()) ignore)
  done;
  Test.make ~name:(Printf.sprintf "eventq hold %d pending" pending)
    (Staged.stage (fun () ->
         let time = Engine.Eventq.min_time q in
         let f = Engine.Eventq.take q in
         ignore (Engine.Eventq.push q ~time:(time + increment ()) f)))

(* The same hold model on a lane (Engine.Sim.lane): one [Sim.step] pops
   the lane's head, puts the next entry in the heap, and the fired entry
   queues itself again at the tail, a constant delay later. With one
   entry the lane's head enters and leaves a one-entry heap every step;
   with 128 the heap still holds one entry and the rest wait in the ring.
   A step includes the simulator's dispatch, which the eventq rows do
   not. *)
let test_lane_hold queued =
  let sim = Engine.Sim.create () in
  let l = Engine.Sim.lane sim in
  let rec tick () = Engine.Sim.lane_at l ~time:(Engine.Sim.now sim + queued) tick in
  for time = 1 to queued do
    Engine.Sim.lane_at l ~time tick
  done;
  Test.make ~name:(Printf.sprintf "sim lane hold %d queued" queued)
    (Staged.stage (fun () -> ignore (Engine.Sim.step sim)))

(* Engine.Inttbl with [live] bindings, keys drawn as grant refs are:
   sequential from 8. [find] probes a pseudo-random live key; a cycle
   binds a fresh key past the live range and unbinds the oldest, so the
   count stays at [live] and removals shift probe chains. 64 is about an
   appliance's port and demux tables, 131 072 the boot storm's grant
   table. *)
let inttbl_tests live =
  let t = Engine.Inttbl.create live in
  for k = 8 to 8 + live - 1 do
    Engine.Inttbl.replace t k k
  done;
  let state = ref 1 and oldest = ref 8 in
  [
    Test.make ~name:(Printf.sprintf "inttbl find %d live" live)
      (Staged.stage (fun () ->
           state := ((!state * 1103515245) + 12345) land 0x3fff_ffff;
           ignore (Engine.Inttbl.find t (!oldest + ((!state lsr 4) mod live)))));
    Test.make ~name:(Printf.sprintf "inttbl replace+remove %d live" live)
      (Staged.stage (fun () ->
           Engine.Inttbl.replace t (!oldest + live) 0;
           Engine.Inttbl.remove t !oldest;
           incr oldest));
  ]

let all_tests =
  [
    test_dns_encode_fmap; test_dns_encode_hashtable; test_compress_fmap_big;
    test_compress_hash_big; test_dns_decode; test_checksum; test_tcp_encode; test_ring_cycle;
    test_of_flow_mod; test_http_parse_render; test_json_parse; test_eventq_hold 128;
    test_eventq_hold 2500; test_lane_hold 1; test_lane_hold 128;
  ]

(* ---- the observability guard ----

   With its plane off, as in every figure run, each observability hot
   site must cost one load and one predictable branch. One table, a row
   per plane, checks that twice. Each disabled site is timed against one
   pinned budget, so a payload built outside its guard fails the build.
   Figure 8 runs once with every plane off, then once with each armable
   row on. Planes only observe (no PRNG draws, no scheduling, no vCPU
   charges), so each armed run's stdout must be byte-identical to the
   off run, and the plane must have observed something. A row whose
   plane is already on (say under --trace) is skipped: it cannot be
   measured disabled, and disarming it would wipe what the run records.
   Run by `dune runtest` via the bench rule. *)

let guard_budget_ns = 25.0
let guard_iters = 5_000_000

(* best-of-5 per-op cost *)
let guard_best f =
  let per_op () =
    let t0 = Sys.time () in
    for i = 1 to guard_iters do
      ignore (Sys.opaque_identity (f i))
    done;
    (Sys.time () -. t0) *. 1e9 /. float_of_int guard_iters
  in
  List.fold_left (fun m _ -> Float.min m (per_op ())) infinity [ 1; 2; 3; 4; 5 ]

type guard_row = {
  plane : string;
  on : unit -> bool;  (* already on for this run: skip the row *)
  sites : (string * (int -> unit)) list;  (* disabled hot sites *)
  arm : (unit -> unit) option;  (* switch the plane on for one Figure 8 run *)
  disarm : unit -> int;  (* switch it off again; how much that run observed *)
}

let guard_rows () =
  (* with the registry off, an HTTP server holds no latency histogram *)
  let latency : Trace.Hist.t option = Sys.opaque_identity None in
  let cap : Capture.t option ref = ref None and frame = Bytestruct.create 64 in
  let prof_on () = Trace.Prof.enabled () || Trace.Flight.enabled () in
  [
    { plane = "trace"; on = Trace.enabled; arm = None; disarm = (fun () -> 0);
      sites =
        [ ("emit-site", fun i ->
              if Trace.enabled () then
                Trace.emit ~cat:Trace.Net ~payload:[ ("i", Trace.Int i) ] "guard.event") ] };
    { plane = "metrics"; on = Trace.Metrics.enabled; arm = Some Trace.Metrics.enable;
      sites =
        [ ("latency-site", fun i ->
              match latency with Some h -> Trace.Hist.record h i | None -> ()) ];
      disarm =
        (fun () ->
          let series = List.length (Trace.Metrics.snapshot ()) in
          Trace.Metrics.disable ();
          Trace.Metrics.reset ();
          series) };
    { plane = "prof+flight"; on = prof_on;
      sites =
        [ ("account-site", fun i -> if Trace.Prof.enabled () then Trace.Prof.account ~dom:0 ~wait_ns:0 i);
          ("frame-site", fun i ->
              let f () = i land 0xff in
              ignore (if Trace.Prof.enabled () then Trace.Prof.with_frame "guard" f else f ()));
          ("dpath-site", fun i ->
              let f () = i land 0xff in
              ignore
                (if Trace.Prof.enabled () then Trace.Prof.hop Trace.Prof.Tcp ~vcpu_ns:i f
                 else f ()));
          ("flight-site", fun _ ->
              if Trace.Flight.enabled () then
                Trace.Flight.note ~dom:0 ~cat:Trace.Net "guard.note") ];
      arm = Some (fun () -> Trace.Prof.enable (); Trace.Flight.enable ());
      disarm =
        (fun () ->
          let rows = List.length (Trace.Prof.stats ()) + List.length (Trace.Prof.hop_stats ()) in
          Trace.Prof.disable (); Trace.Flight.disable ();
          Trace.Prof.reset (); Trace.Flight.reset ();
          rows) };
    { plane = "capture"; on = (fun () -> !Util.capture_worlds);
      sites =
        [ ("capture-site", fun i ->
              match !cap with
              | None -> ()
              | Some c -> Capture.record c ~dir:Netsim.Tx ~link:0 ~time_ns:i frame) ];
      arm = Some (fun () -> Util.capture_worlds := true);
      disarm =
        (fun () ->
          Util.capture_worlds := false;
          let matched n c = n + Capture.matched c in
          let frames = List.fold_left matched 0 !Util.world_captures in
          Util.close_world_captures ();
          frames) };
  ]

let guard_sites rows =
  let base = guard_best ignore in
  let over =
    List.concat_map (fun r -> List.map (fun (site, f) -> (r.plane ^ "/" ^ site, f)) r.sites) rows
    |> List.filter (fun (name, f) ->
           let cost = Float.max 0.0 (guard_best f -. base) in
           Util.emit ~figure:"guard" ~metric:name ~unit_:"ns/op" cost;
           Printf.printf "  disabled %-32s %5.2f ns/op\n" name cost;
           cost > guard_budget_ns)
  in
  Printf.printf "  (baseline %.2f ns/op, budget %.1f ns/op per site)\n" base guard_budget_ns;
  if over <> [] then begin
    Printf.printf "  FAIL: over budget: %s\n" (String.concat ", " (List.map fst over));
    exit 1
  end

(* Figure 8's stdout. Its --out records are dropped, so a full-suite
   bench.json does not repeat its data points. *)
let fig8_stdout () =
  let saved_results = !Util.results in
  flush stdout;
  let saved = Unix.dup Unix.stdout in
  let tmp = Filename.temp_file ~temp_dir:(Sys.getcwd ()) "fig8" ".out" in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  Unix.dup2 fd Unix.stdout;
  Unix.close fd;
  Fun.protect Fig8.run ~finally:(fun () ->
      flush stdout;
      Unix.dup2 saved Unix.stdout;
      Unix.close saved;
      Util.results := saved_results);
  let ic = open_in_bin tmp in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove tmp;
  s

let guard_fig8 rows =
  match List.filter_map (fun r -> Option.map (fun arm -> (r, arm)) r.arm) rows with
  | [] -> ()
  | armed ->
    let off = fig8_stdout () in
    Printf.printf "  figure 8, every plane off: %d bytes of stdout\n" (String.length off);
    let failed =
      List.filter
        (fun (r, arm) ->
          arm ();
          let same = fig8_stdout () = off in
          let observed = r.disarm () in
          Util.emit ~figure:"guard" ~metric:(r.plane ^ "/fig8-byte-identical") ~unit_:"bool"
            (if same then 1.0 else 0.0);
          Printf.printf "  figure 8, %-17s on: %s (%d observed)\n" r.plane
            (if not same then "FAIL: stdout changed"
             else if observed = 0 then "FAIL: vacuous, nothing observed"
             else "byte-identical")
            observed;
          (not same) || observed = 0)
        armed
    in
    if failed <> [] then exit 1

let guard () =
  Util.header "Observability guard (disabled-site budgets, figure-8 invariance)";
  let rows, skipped = List.partition (fun r -> not (r.on ())) (guard_rows ()) in
  List.iter (fun r -> Printf.printf "  skipped %s: the plane is on for this run\n" r.plane) skipped;
  guard_sites rows;
  guard_fig8 rows;
  Printf.printf "  OK\n"

let run () =
  Util.header "Microbenchmarks (real wall-clock, Bechamel)";
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let instances = Instance.[ monotonic_clock ] in
  let measure ?(stabilize = true) test =
    let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~stabilize () in
    let results = Benchmark.all cfg instances test in
    let results = Analyze.all ols (Instance.monotonic_clock) results in
    Hashtbl.iter
      (fun name ols_result ->
        match Analyze.OLS.estimates ols_result with
        | Some [ ns ] ->
          Util.emit ~figure:"micro" ~metric:name ~unit_:"ns/op" ns;
          Printf.printf "  %-38s %10.1f ns/op\n" name ns
        | _ -> Printf.printf "  %-38s (no estimate)\n" name)
      results
  in
  List.iter measure all_tests;
  (* Built here, not with the rows above: every bench command would
     otherwise carry the 131 072-key table in its heap. Unstabilized for
     the reason below: with a compaction before each sample, the
     131 072-key replace+remove row read ~1.5 us against ~55 ns. *)
  List.iter (measure ~stabilize:false) (inttbl_tests 64 @ inttbl_tests 131_072);
  (* Last: the other rows run without the 100 000-name zone's heap, and
     no other bench command builds it. Compacting that heap before each
     sample, as [stabilize] does, would spend the quota on compaction. *)
  List.iter (measure ~stabilize:false) (zone_100k_tests ());
  Printf.printf
    "  (4.2: raw speed of the two compression tables is workload-dependent here; the\n";
  Printf.printf
    "   functional map's advantage is structural - immunity to the hash-collision\n";
  Printf.printf "   denial-of-service the paper describes)\n"
