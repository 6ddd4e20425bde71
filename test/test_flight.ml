(* Trace.Flight end to end: the bounded per-domain rings, postmortem
   bundles, and the acceptance scenario — a peer killed mid-flow must
   produce a bundle naming the failing flow and its last retransmit
   breadcrumbs, while a clean run produces none. Also the PR-7-style
   teardown regression: destroying a domain must not leave stale
   profiler or flight series behind. *)

open Testlib
module P = Mthread.Promise
module N = Netstack

let ( >>= ) = P.bind
let bs = Bytestruct.of_string

let with_flight ?dir f =
  Trace.Flight.reset ();
  Trace.Flight.enable ?dir ();
  Fun.protect ~finally:Trace.quiesce f

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* ---- ring mechanics ---- *)

let test_ring_bounds () =
  Trace.Flight.reset ();
  Trace.Flight.enable ~capacity:4 ();
  Fun.protect ~finally:Trace.quiesce (fun () ->
      for i = 0 to 9 do
        Trace.Flight.note ~dom:3 ~cat:Trace.Net ~payload:[ ("i", Trace.Int i) ] "tick"
      done;
      let evs = Trace.Flight.recent 3 in
      check_int "ring keeps last capacity notes" 4 (List.length evs);
      (* oldest-first: the survivors are i = 6..9 *)
      List.iteri
        (fun k (fe : Trace.Flight.fev) ->
          match fe.Trace.Flight.fe_payload with
          | [ ("i", Trace.Int i) ] -> check_int "oldest first" (6 + k) i
          | _ -> Alcotest.fail "unexpected payload")
        evs;
      check_int "other dom ring empty" 0 (List.length (Trace.Flight.recent 7));
      Trace.Flight.watermark "q" 5;
      Trace.Flight.watermark "q" 3;
      Trace.Flight.watermark "q" 9;
      check_bool "watermark keeps the max" true (Trace.Flight.watermarks () = [ ("q", 9) ]))

let test_bundle_retention () =
  with_flight (fun () ->
      for i = 1 to 12 do
        Trace.Flight.trip ~reason:(Printf.sprintf "r%d" i) ()
      done;
      check_int "trip count" 12 (Trace.Flight.trips ());
      let bundles = Trace.Flight.bundles () in
      check_int "bounded retention" 8 (List.length bundles);
      (* oldest first, newest last; the first four fell off *)
      (match bundles with
      | (name, _) :: _ -> check_string "oldest retained" "flight-0005-r5.jsonl" name
      | [] -> Alcotest.fail "no bundles");
      match Trace.Flight.last_bundle () with
      | Some (name, contents) ->
        check_string "newest" "flight-0012-r12.jsonl" name;
        check_bool "header carries the reason" true (contains contents "\"reason\":\"r12\"")
      | None -> Alcotest.fail "no last bundle")

let test_disabled_noop () =
  Trace.Flight.reset ();
  Trace.Flight.note ~dom:1 ~cat:Trace.Net "ignored";
  Trace.Flight.watermark "ignored" 4;
  Trace.Flight.trip ~reason:"ignored" ();
  check_int "no trips when disabled" 0 (Trace.Flight.trips ());
  check_bool "no bundles when disabled" true (Trace.Flight.bundles () = []);
  check_int "no notes when disabled" 0 (List.length (Trace.Flight.recent 1))

(* ---- the acceptance scenario: kill a peer mid-flow ---- *)

(* A client pushes data at a sink server; [kill_peer] silently drops
   every frame to the server from t_kill on (the "peer destroyed"
   failure mode — no RST, no FIN, just silence). The client flow must
   retransmit, back off, give up with Timeout, and trip the recorder. *)
let run_kill_scenario ~kill_peer =
  let w = make_world () in
  let a = make_host w ~name:"client" ~ip:"10.0.0.9" () in
  let b = make_host w ~name:"server" ~ip:"10.0.0.2" () in
  N.Tcp.listen (N.Stack.tcp b.stack) ~port:5001 (fun flow ->
      let rec sink () =
        N.Tcp.read flow >>= function None -> N.Tcp.close flow | Some _ -> sink ()
      in
      sink ());
  run w
    (P.catch
       (fun () ->
         N.Tcp.connect (N.Stack.tcp a.stack) ~dst:(N.Stack.address b.stack) ~dst_port:5001
         >>= fun flow ->
         N.Tcp.write flow (bs (String.make 1024 'a')) >>= fun () ->
         if kill_peer then Netsim.Bridge.set_loss w.bridge b.nic 1.0;
         (* Push well past the 256 KB send buffer: with the peer dead the
            buffer never drains, a write blocks, and the flow's give-up
            wakes it with [Timeout]. *)
         let rec send n =
           if n = 0 then P.return ()
           else N.Tcp.write flow (bs (String.make 65536 'b')) >>= fun () -> send (n - 1)
         in
         send 8 >>= fun () ->
         N.Tcp.close flow >>= fun () -> P.return `Clean)
       (function Mthread.Promise.Timeout -> P.return `Timeout | e -> P.fail e))

let test_clean_run_no_bundle () =
  with_flight (fun () ->
      (match run_kill_scenario ~kill_peer:false with
      | `Clean -> ()
      | `Timeout -> Alcotest.fail "clean exchange must not time out");
      check_int "no trips on a clean run" 0 (Trace.Flight.trips ());
      check_bool "no bundles on a clean run" true (Trace.Flight.bundles () = []))

let test_peer_death_postmortem () =
  with_flight (fun () ->
      (match run_kill_scenario ~kill_peer:true with
      | `Timeout -> ()
      | `Clean -> Alcotest.fail "flow to a dead peer must give up with Timeout");
      check_bool "the give-up tripped the recorder" true (Trace.Flight.trips () >= 1);
      match Trace.Flight.last_bundle () with
      | None -> Alcotest.fail "no postmortem bundle"
      | Some (name, contents) ->
        check_bool "bundle named after the failure" true (contains name "tcp.timeout");
        check_bool "header carries the reason" true (contains contents "\"reason\":\"tcp.timeout\"");
        (* the bundle names the failing flow... *)
        check_bool "flow failure recorded" true (contains contents "tcp.flow_fail");
        check_bool "flow identified by peer port" true (contains contents "5001");
        (* ...and its last retransmit breadcrumbs *)
        check_bool "retransmits recorded" true (contains contents "tcp.retransmit"))

(* ---- teardown: no stale series after destroy ---- *)

let test_destroy_clears_series () =
  (* with_flight's teardown quiesces every plane, the profiler too *)
  with_flight (fun () ->
      Trace.Prof.reset ();
      Trace.Prof.enable ();
      let w = make_world () in
      let a = make_host w ~name:"client" ~ip:"10.0.0.9" () in
      let b = make_host w ~name:"server" ~ip:"10.0.0.2" () in
      (match run_kill_scenario ~kill_peer:false with
      | `Clean -> ()
      | `Timeout -> Alcotest.fail "clean exchange must not time out");
      ignore a;
      let victim = b.dom.Xensim.Domain.id in
      (* some traffic was attributed to the server... *)
      Trace.Flight.note ~dom:victim ~cat:Trace.Net "breadcrumb";
      Trace.Prof.account ~dom:victim 1_000;
      check_bool "flight ring exists before destroy" true
        (Trace.Flight.recent victim <> []);
      check_bool "profiler series exist before destroy" true
        (List.exists (fun (s : Trace.Prof.stat) -> s.Trace.Prof.p_dom = victim)
           (Trace.Prof.stats ()));
      (* orderly teardown (exit 0): no postmortem, no stale series *)
      let trips_before = Trace.Flight.trips () in
      Xensim.Hypervisor.destroy ~exit_code:0 w.hv b.dom;
      check_int "clean exit does not trip" trips_before (Trace.Flight.trips ());
      check_bool "flight ring dropped on destroy" true (Trace.Flight.recent victim = []);
      check_bool "profiler series dropped on destroy" true
        (not
           (List.exists (fun (s : Trace.Prof.stat) -> s.Trace.Prof.p_dom = victim)
              (Trace.Prof.stats ()))))

let test_crash_exit_trips () =
  with_flight (fun () ->
      let w = make_world () in
      let a = make_host w ~name:"crasher" ~ip:"10.0.0.3" () in
      Trace.Flight.note ~dom:a.dom.Xensim.Domain.id ~cat:Trace.Device "last.words";
      Xensim.Hypervisor.destroy ~exit_code:2 w.hv a.dom;
      check_int "non-zero exit trips" 1 (Trace.Flight.trips ());
      (match Trace.Flight.last_bundle () with
      | Some (name, contents) ->
        check_bool "named after the exit" true (contains name "domain.exit");
        (* the bundle froze the ring before drop_dom dropped it *)
        check_bool "breadcrumb captured" true (contains contents "last.words")
      | None -> Alcotest.fail "no bundle on crash exit");
      check_bool "ring dropped after the bundle froze" true
        (Trace.Flight.recent a.dom.Xensim.Domain.id = []))

let () =
  Alcotest.run "flight"
    [
      ( "flight",
        [
          Alcotest.test_case "ring bounds + watermarks" `Quick test_ring_bounds;
          Alcotest.test_case "bundle retention" `Quick test_bundle_retention;
          Alcotest.test_case "disabled is a no-op" `Quick test_disabled_noop;
          Alcotest.test_case "clean run leaves no bundle" `Quick test_clean_run_no_bundle;
          Alcotest.test_case "peer death mid-flow -> postmortem" `Quick test_peer_death_postmortem;
          Alcotest.test_case "destroy clears profiler+flight series" `Quick
            test_destroy_clears_series;
          Alcotest.test_case "crash exit trips with the ring intact" `Quick test_crash_exit_trips;
        ] );
    ]
