(* Chaos matrix, fast subset: Fig-8-style bulk transfers under composed
   fault schedules × pinned PRNG seeds. Every run must terminate with a
   byte-identical payload (MD5), and the whole matrix must replay
   bit-for-bit from its seed. The full matrix (more seeds, more bytes,
   goodput report) lives in `bench/main.exe -- chaos`. *)

open Testlib
module P = Mthread.Promise
open P.Infix
module N = Netstack
module F = Netsim.Faults

type outcome = {
  digest : Digest.t;
  elapsed_ns : int;
  segs_sent : int;
  retransmits : int;
  faults : Netsim.fault_counts;
}

(* One bulk transfer under [schedule], started on a clean link (the
   handshake is not the subject here) with faults installed on both
   directions once established. Bounded by a sim-time deadline so a
   deadlock fails the test instead of hanging it. *)
let chaos_run ~seed ~schedule ~bytes =
  let w = create ~seed () in
  let a = host w ~platform:Platform.xen_extent ~name:"a" ~ip:"10.0.0.1" () in
  let b = host w ~platform:Platform.linux_pv ~name:"b" ~ip:"10.0.0.2" () in
  let received = Buffer.create bytes in
  let server_done, done_u = P.wait () in
  N.Tcp.listen (N.Stack.tcp b.stack) ~port:5001 (fun flow ->
      let rec drain () =
        N.Tcp.read flow >>= function
        | None ->
          P.wakeup done_u ();
          P.return ()
        | Some c ->
          Buffer.add_string received (Bytestruct.to_string c);
          drain ()
      in
      drain ());
  let data = pattern bytes in
  let flow =
    run w (N.Tcp.connect (N.Stack.tcp a.stack) ~dst:(N.Stack.address b.stack) ~dst_port:5001)
  in
  let now = Engine.Sim.now w.sim in
  Netsim.Bridge.set_faults w.bridge a.nic (schedule ~now);
  Netsim.Bridge.set_faults w.bridge b.nic (schedule ~now);
  P.async (fun () ->
      let rec send off =
        if off >= bytes then N.Tcp.close flow
        else
          N.Tcp.write flow (bs (String.sub data off (min 4096 (bytes - off)))) >>= fun () ->
          send (off + 4096)
      in
      send 0);
  Engine.Sim.run w.sim ~until:(now + Engine.Sim.sec 30);
  if P.state server_done = `Pending then `Hung
  else
    `Done
      {
        digest = Digest.string (Buffer.contents received);
        elapsed_ns = Engine.Sim.now w.sim - now;
        segs_sent = N.Tcp.segments_sent (N.Stack.tcp a.stack);
        retransmits = N.Tcp.retransmissions (N.Stack.tcp a.stack);
        faults = Netsim.Bridge.fault_counts w.bridge;
      }

let bytes = 80_000
let seeds = [ 1; 7; 1001 ]

let test_schedule (name, schedule) () =
  let expected = Digest.string (pattern bytes) in
  List.iter
    (fun seed ->
      match chaos_run ~seed ~schedule ~bytes with
      | `Hung -> Alcotest.failf "%s seed %d: transfer did not terminate" name seed
      | `Done o ->
        check_bool
          (Printf.sprintf "%s seed %d: payload intact" name seed)
          true
          (Digest.equal o.digest expected);
        (* 80 KB inside the 30 s deadline: a (deliberately loose) goodput
           floor of ~21 kbit/s. The bench reports the real numbers. *)
        check_bool
          (Printf.sprintf "%s seed %d: terminated in time" name seed)
          true
          (o.elapsed_ns <= Engine.Sim.sec 30))
    seeds

let test_replay_determinism () =
  (* Same seed, same schedule → the same run, down to every counter. *)
  let _, schedule = List.nth chaos_schedules (List.length chaos_schedules - 1) in
  match (chaos_run ~seed:7 ~schedule ~bytes, chaos_run ~seed:7 ~schedule ~bytes) with
  | `Done o1, `Done o2 ->
    check_bool "identical digests" true (Digest.equal o1.digest o2.digest);
    check_int "identical segment counts" o1.segs_sent o2.segs_sent;
    check_int "identical retransmit counts" o1.retransmits o2.retransmits;
    check_bool "identical fault counts" true (o1.faults = o2.faults);
    check_int "identical elapsed time" o1.elapsed_ns o2.elapsed_ns;
    let total f =
      f.Netsim.fc_burst_dropped + f.Netsim.fc_flap_dropped + f.Netsim.fc_corrupted
      + f.Netsim.fc_duplicated + f.Netsim.fc_reordered
    in
    check_bool "faults actually fired" true (total o1.faults > 0)
  | _ -> Alcotest.fail "replay runs must terminate"

let test_zero_window_under_loss () =
  (* The sharpest deadlock scenario: the receiver stalls until the window
     is zero while the link also loses packets, so the reopening window
     update can be lost. Persist probes must unstick it. *)
  let w = create ~seed:11 () in
  let a = host w ~platform:Platform.xen_extent ~name:"a" ~ip:"10.0.0.1" () in
  let b = host w ~platform:Platform.linux_pv ~name:"b" ~ip:"10.0.0.2" () in
  let start_reading, start_u = P.wait () in
  let received = Buffer.create 0 in
  let server_done, done_u = P.wait () in
  N.Tcp.listen (N.Stack.tcp b.stack) ~port:5001 (fun flow ->
      start_reading >>= fun () ->
      let rec drain () =
        N.Tcp.read flow >>= function
        | None ->
          P.wakeup done_u ();
          P.return ()
        | Some c ->
          Buffer.add_string received (Bytestruct.to_string c);
          drain ()
      in
      drain ());
  let bytes = 450_000 in
  let data = pattern bytes in
  let flow =
    run w (N.Tcp.connect (N.Stack.tcp a.stack) ~dst:(N.Stack.address b.stack) ~dst_port:5001)
  in
  let faults () = F.make ~ge:(F.burst_loss ~avg_loss:0.05 ~burst_len:4 ()) () in
  Netsim.Bridge.set_faults w.bridge a.nic (faults ());
  Netsim.Bridge.set_faults w.bridge b.nic (faults ());
  P.async (fun () ->
      let rec send off =
        if off >= bytes then N.Tcp.close flow
        else
          N.Tcp.write flow (bs (String.sub data off (min 8192 (bytes - off)))) >>= fun () ->
          send (off + 8192)
      in
      send 0);
  ignore (run w (P.sleep w.sim (Engine.Sim.ms 500)));
  check_bool "window went to zero and persist probed" true
    (N.Tcp.persist_probes (N.Stack.tcp a.stack) >= 1);
  P.wakeup start_u ();
  let deadline = Engine.Sim.now w.sim + Engine.Sim.sec 30 in
  Engine.Sim.run w.sim ~until:deadline;
  if P.state server_done = `Pending then Alcotest.fail "zero-window transfer deadlocked";
  check_bool "payload intact after zero-window episode" true (Buffer.contents received = data)

let () =
  Alcotest.run "chaos"
    [
      ( "matrix",
        List.map (fun s -> Alcotest.test_case (fst s) `Quick (test_schedule s)) chaos_schedules );
      ( "properties",
        [
          Alcotest.test_case "replay determinism" `Quick test_replay_determinism;
          Alcotest.test_case "zero window under loss" `Quick test_zero_window_under_loss;
        ] );
    ]
