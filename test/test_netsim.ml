open Testlib

let frame ~dst ~src payload =
  let b = Bytestruct.create (14 + String.length payload) in
  Bytestruct.set_string b 0 dst;
  Bytestruct.set_string b 6 src;
  Bytestruct.BE.set_uint16 b 12 0x0800;
  Bytestruct.set_string b 14 payload;
  b

let test_mac_utils () =
  check_string "bytes" "\x02\x00\x00\x00\x07\x01" (Netsim.mac_of_int 7);
  check_int "length" 6 (String.length (Netsim.mac_of_int 1));
  check_bool "distinct" true (Netsim.mac_of_int 1 <> Netsim.mac_of_int 2)

let two_nics ?latency_ns ?bandwidth_bps () =
  let sim = Engine.Sim.create () in
  let br = Netsim.Bridge.create sim in
  let a = Netsim.Bridge.new_nic br ?latency_ns ?bandwidth_bps ~mac:(Netsim.mac_of_int 1) () in
  let b = Netsim.Bridge.new_nic br ~mac:(Netsim.mac_of_int 2) () in
  (sim, br, a, b)

let test_flood_then_learn () =
  let sim, br, a, b = two_nics () in
  let c = Netsim.Bridge.new_nic br ~mac:(Netsim.mac_of_int 3) () in
  let b_got = ref 0 and c_got = ref 0 in
  Netsim.Nic.set_rx b (fun _ -> incr b_got);
  Netsim.Nic.set_rx c (fun _ -> incr c_got);
  (* Unknown destination floods to everyone. *)
  Netsim.Nic.send a (frame ~dst:(Netsim.mac_of_int 2) ~src:(Netsim.Nic.mac a) "x");
  Engine.Sim.run sim;
  check_int "b got flooded frame" 1 !b_got;
  check_int "c got flooded frame" 1 !c_got;
  check_int "flooded count" 1 (Netsim.Bridge.flooded br);
  (* b replies; bridge learns both; now a->b is unicast. *)
  Netsim.Nic.send b (frame ~dst:(Netsim.Nic.mac a) ~src:(Netsim.Nic.mac b) "y");
  Engine.Sim.run sim;
  Netsim.Nic.send a (frame ~dst:(Netsim.Nic.mac b) ~src:(Netsim.Nic.mac a) "z");
  Engine.Sim.run sim;
  check_int "c not flooded again" 1 !c_got;
  check_int "b received unicast" 2 !b_got;
  check_bool "forwarded count grew" true (Netsim.Bridge.forwarded br >= 1)

(* The service directory is a hashtable (O(1) advertise/withdraw for
   boot storms) but enumeration must stay deterministic: oldest first,
   and re-advertising a name moves it to the end like a fresh entry. *)
let test_services_enumeration_order () =
  let sim = Engine.Sim.create () in
  let br = Netsim.Bridge.create sim in
  for i = 1 to 20 do
    Netsim.Bridge.advertise br ~name:(Printf.sprintf "svc.%d" i) ~ip:"10.0.0.1" ~port:i
  done;
  let names () = List.map (fun (n, _, _) -> n) (Netsim.Bridge.services br) in
  check (Alcotest.list Alcotest.string) "oldest first"
    (List.init 20 (fun i -> Printf.sprintf "svc.%d" (i + 1)))
    (names ());
  Netsim.Bridge.withdraw br ~name:"svc.7";
  check_int "withdraw removes" 19 (List.length (names ()));
  check_bool "withdrawn name gone" false (List.mem "svc.7" (names ()));
  (* re-advertise: fresh registration, so it enumerates last *)
  Netsim.Bridge.advertise br ~name:"svc.3" ~ip:"10.0.0.9" ~port:333;
  (match List.rev (Netsim.Bridge.services br) with
  | (n, ip, port) :: _ ->
    check_string "re-advertised name is last" "svc.3" n;
    check_string "with the fresh ip" "10.0.0.9" ip;
    check_int "and the fresh port" 333 port
  | [] -> Alcotest.fail "directory empty");
  check_int "re-advertise does not duplicate" 19 (List.length (names ()))

let broadcast_mac = "\xff\xff\xff\xff\xff\xff"

let test_broadcast () =
  let sim, _, a, b = two_nics () in
  let got = ref 0 in
  Netsim.Nic.set_rx b (fun _ -> incr got);
  Netsim.Nic.send a (frame ~dst:broadcast_mac ~src:(Netsim.Nic.mac a) "bc");
  Engine.Sim.run sim;
  check_int "broadcast delivered" 1 !got

let test_no_self_delivery () =
  let sim, _, a, _ = two_nics () in
  let self = ref 0 in
  Netsim.Nic.set_rx a (fun _ -> incr self);
  Netsim.Nic.send a (frame ~dst:broadcast_mac ~src:(Netsim.Nic.mac a) "hi");
  Engine.Sim.run sim;
  check_int "no self delivery" 0 !self

let test_latency () =
  let sim, _, a, b = two_nics ~latency_ns:50_000 ~bandwidth_bps:1_000_000_000 () in
  let arrival = ref 0 in
  Netsim.Nic.set_rx b (fun _ -> arrival := Engine.Sim.now sim);
  let f = frame ~dst:(Netsim.Nic.mac b) ~src:(Netsim.Nic.mac a) (String.make 111 'x') in
  (* 125 bytes at 1 Gb/s = 1000 ns serialisation + 50us latency *)
  Netsim.Nic.send a f;
  Engine.Sim.run sim;
  check_int "arrival time = serialisation + latency" 51_000 !arrival

let test_bandwidth_serialisation () =
  let sim, _, a, b = two_nics ~latency_ns:0 ~bandwidth_bps:8_000_000 () in
  (* 8 Mb/s => 1000-byte frame takes 1 ms; two back-to-back frames arrive
     1 ms apart. *)
  let times = ref [] in
  Netsim.Nic.set_rx b (fun _ -> times := Engine.Sim.now sim :: !times);
  let f () = frame ~dst:(Netsim.Nic.mac b) ~src:(Netsim.Nic.mac a) (String.make 986 'x') in
  Netsim.Nic.send a (f ());
  Netsim.Nic.send a (f ());
  Engine.Sim.run sim;
  (match List.rev !times with
  | [ t1; t2 ] ->
    check_int "first at 1ms" 1_000_000 t1;
    check_int "second at 2ms" 2_000_000 t2
  | _ -> Alcotest.fail "expected two arrivals")

let test_loss () =
  let sim, br, a, b = two_nics () in
  Netsim.Bridge.set_loss br a 1.0;
  let got = ref 0 in
  Netsim.Nic.set_rx b (fun _ -> incr got);
  for _ = 1 to 10 do
    Netsim.Nic.send a (frame ~dst:(Netsim.Nic.mac b) ~src:(Netsim.Nic.mac a) "drop")
  done;
  Engine.Sim.run sim;
  check_int "all dropped" 0 !got;
  check_int "drop count" 10 (Netsim.Bridge.dropped br);
  Netsim.Bridge.set_loss br a 0.0;
  Netsim.Nic.send a (frame ~dst:(Netsim.Nic.mac b) ~src:(Netsim.Nic.mac a) "ok");
  Engine.Sim.run sim;
  check_int "delivered after loss cleared" 1 !got

let test_wire_owns_frame () =
  (* [send] transfers ownership: the wire holds the sender's buffer by
     reference (no defensive copy) until delivery, so the frame must not
     be mutated after send. Zero-copy is observable: the delivered view
     reads whatever the buffer holds at delivery time. *)
  let sim, _, a, b = two_nics () in
  let seen = ref "" in
  Netsim.Nic.set_rx b (fun f -> seen := Bytestruct.to_string f);
  let f = frame ~dst:(Netsim.Nic.mac b) ~src:(Netsim.Nic.mac a) "orig" in
  Netsim.Nic.send a f;
  Engine.Sim.run sim;
  check_string "received the payload" "orig" (String.sub !seen 14 4)

let test_corruption_copies_before_mutating () =
  (* The one fault that writes — corruption — must clobber a private
     copy, never the sender's buffer (which TCP may still hold for
     retransmission). *)
  let sim = Engine.Sim.create ~seed:7 () in
  let br = Netsim.Bridge.create sim in
  let a = Netsim.Bridge.new_nic br ~mac:(Netsim.mac_of_int 1) () in
  let b = Netsim.Bridge.new_nic br ~mac:(Netsim.mac_of_int 2) () in
  Netsim.Bridge.set_faults br b (Netsim.Faults.make ~corrupt:1.0 ());
  let corrupted = ref 0 in
  Netsim.Nic.set_rx b (fun _ -> ());
  for _ = 1 to 20 do
    let f = frame ~dst:(Netsim.Nic.mac b) ~src:(Netsim.Nic.mac a) "orig" in
    Netsim.Nic.send a f;
    Engine.Sim.run sim;
    if String.sub (Bytestruct.to_string f) 14 4 <> "orig" then incr corrupted
  done;
  check_int "sender buffers untouched by corruption" 0 !corrupted

let test_tap () =
  let sim, br, a, b = two_nics () in
  let tx = ref 0 and rx = ref 0 and tx_link = ref (-1) and rx_link = ref (-1) in
  let h =
    Netsim.Bridge.tap br (fun ~dir ~link ~time_ns:_ _ ->
        match dir with
        | Netsim.Tx ->
          incr tx;
          tx_link := link
        | Netsim.Rx ->
          incr rx;
          rx_link := link)
  in
  Netsim.Nic.set_rx b (fun _ -> ());
  Netsim.Nic.send a (frame ~dst:(Netsim.Nic.mac b) ~src:(Netsim.Nic.mac a) "x");
  Engine.Sim.run sim;
  check_int "tap saw tx" 1 !tx;
  check_int "tap saw rx" 1 !rx;
  check_int "tx link is sender's" (Netsim.Nic.id a) !tx_link;
  check_int "rx link is receiver's" (Netsim.Nic.id b) !rx_link;
  (* untap: a detached observer sees nothing more. *)
  Netsim.Bridge.untap br h;
  Netsim.Nic.send a (frame ~dst:(Netsim.Nic.mac b) ~src:(Netsim.Nic.mac a) "y");
  Engine.Sim.run sim;
  check_int "untapped: no more tx" 1 !tx;
  check_int "untapped: no more rx" 1 !rx

let test_counters () =
  let sim, _, a, b = two_nics () in
  Netsim.Nic.set_rx b (fun _ -> ());
  let f = frame ~dst:(Netsim.Nic.mac b) ~src:(Netsim.Nic.mac a) "abc" in
  Netsim.Nic.send a f;
  Engine.Sim.run sim;
  check_int "frames sent" 1 (Netsim.Nic.frames_sent a);
  check_int "bytes sent" 17 (Netsim.Nic.bytes_sent a);
  check_int "frames received" 1 (Netsim.Nic.frames_received b)

let test_short_frame_rejected () =
  let sim, _, a, _ = two_nics () in
  ignore sim;
  match Netsim.Nic.send a (Bytestruct.create 10) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "short frame rejected"

(* ---------- fault injection ---------- *)

(* An IPv4-looking frame whose payload starts at byte 14; corruption only
   targets bytes >= 34, so payloads of 21+ bytes are corruptible. *)
let ip_frame ~dst ~src payload = frame ~dst ~src payload

let collect_rx nic =
  let got = ref [] in
  Netsim.Nic.set_rx nic (fun f -> got := Bytestruct.to_string f :: !got);
  fun () -> List.rev !got

let test_ge_all_bad () =
  (* p_good_bad = 1: the chain enters Bad on the first frame and, with
     p_bad_good = 0, never leaves; loss_bad = 1 drops everything. *)
  let sim, br, a, b = two_nics () in
  let ge =
    { Netsim.Faults.p_good_bad = 1.0; p_bad_good = 0.0; loss_good = 0.0; loss_bad = 1.0; slot_ns = 100_000 }
  in
  Netsim.Bridge.set_faults br a (Netsim.Faults.make ~ge ());
  let got = collect_rx b in
  for _ = 1 to 10 do
    Netsim.Nic.send a (ip_frame ~dst:(Netsim.Nic.mac b) ~src:(Netsim.Nic.mac a) "x")
  done;
  Engine.Sim.run sim;
  check_int "all burst-dropped" 0 (List.length (got ()));
  check_int "burst counter" 10 (Netsim.Bridge.fault_counts br).Netsim.fc_burst_dropped;
  check_int "total dropped" 10 (Netsim.Bridge.dropped br)

let test_ge_stays_good () =
  let sim, br, a, b = two_nics () in
  let ge =
    { Netsim.Faults.p_good_bad = 0.0; p_bad_good = 1.0; loss_good = 0.0; loss_bad = 1.0; slot_ns = 100_000 }
  in
  Netsim.Bridge.set_faults br a (Netsim.Faults.make ~ge ());
  let got = collect_rx b in
  for _ = 1 to 10 do
    Netsim.Nic.send a (ip_frame ~dst:(Netsim.Nic.mac b) ~src:(Netsim.Nic.mac a) "x")
  done;
  Engine.Sim.run sim;
  check_int "none dropped in Good" 10 (List.length (got ()));
  check_int "no burst drops" 0 (Netsim.Bridge.fault_counts br).Netsim.fc_burst_dropped

let test_burst_loss_params () =
  let g = Netsim.Faults.burst_loss ~avg_loss:0.02 ~burst_len:5 in
  check_bool "bad is lossy" true (g.Netsim.Faults.loss_bad = 1.0);
  check_bool "good is clean" true (g.Netsim.Faults.loss_good = 0.0);
  check_bool "mean burst length 5" true (abs_float (g.Netsim.Faults.p_bad_good -. 0.2) < 1e-9);
  (* Stationary loss = p_gb / (p_gb + p_bg) must equal avg_loss. *)
  let pi_bad =
    g.Netsim.Faults.p_good_bad /. (g.Netsim.Faults.p_good_bad +. g.Netsim.Faults.p_bad_good)
  in
  check_bool "stationary loss rate" true (abs_float (pi_bad -. 0.02) < 1e-9)

let test_scripted_drop () =
  let sim, br, a, b = two_nics () in
  Netsim.Bridge.set_faults br a
    (Netsim.Faults.make ~drop_when:(fun ~now_ns:_ ~nth _ -> nth = 1) ());
  let got = collect_rx b in
  for i = 0 to 3 do
    Netsim.Nic.send a
      (ip_frame ~dst:(Netsim.Nic.mac b) ~src:(Netsim.Nic.mac a) (Printf.sprintf "%d" i))
  done;
  Engine.Sim.run sim;
  let payloads = List.map (fun s -> String.sub s 14 1) (got ()) in
  check_bool "exactly frame 1 dropped" true (payloads = [ "0"; "2"; "3" ]);
  check_int "script counter" 1 (Netsim.Bridge.fault_counts br).Netsim.fc_script_dropped

let test_reorder () =
  let sim, br, a, b = two_nics () in
  Netsim.Bridge.set_faults br a (Netsim.Faults.make ~reorder:(1.0, 500_000) ());
  let got = collect_rx b in
  let n = 20 in
  for i = 0 to n - 1 do
    Netsim.Nic.send a
      (ip_frame ~dst:(Netsim.Nic.mac b) ~src:(Netsim.Nic.mac a) (Printf.sprintf "%02d" i))
  done;
  Engine.Sim.run sim;
  let payloads = List.map (fun s -> String.sub s 14 2) (got ()) in
  check_int "all frames arrive" n (List.length payloads);
  check_bool "arrival order scrambled" true (payloads <> List.sort compare payloads);
  check_int "reorder counter" n (Netsim.Bridge.fault_counts br).Netsim.fc_reordered

let test_duplicate () =
  let sim, br, a, b = two_nics () in
  Netsim.Bridge.set_faults br a (Netsim.Faults.make ~duplicate:1.0 ());
  let got = collect_rx b in
  for _ = 1 to 5 do
    Netsim.Nic.send a (ip_frame ~dst:(Netsim.Nic.mac b) ~src:(Netsim.Nic.mac a) "dup")
  done;
  Engine.Sim.run sim;
  check_int "each frame delivered twice" 10 (List.length (got ()));
  check_int "duplicate counter" 5 (Netsim.Bridge.fault_counts br).Netsim.fc_duplicated

let test_corrupt () =
  let sim, br, a, b = two_nics () in
  Netsim.Bridge.set_faults br a (Netsim.Faults.make ~corrupt:1.0 ());
  let got = collect_rx b in
  let sent = ip_frame ~dst:(Netsim.Nic.mac b) ~src:(Netsim.Nic.mac a) (String.make 40 'p') in
  let sent_s = Bytestruct.to_string sent in
  Netsim.Nic.send a sent;
  Engine.Sim.run sim;
  (match got () with
  | [ rx ] ->
    check_int "same length" (String.length sent_s) (String.length rx);
    let diff_bits = ref 0 in
    String.iteri
      (fun i c ->
        let x = Char.code c lxor Char.code rx.[i] in
        let rec popcount n = if n = 0 then 0 else (n land 1) + popcount (n lsr 1) in
        diff_bits := !diff_bits + popcount x;
        if x <> 0 then check_bool "flip past the IPv4 header" true (i >= 34))
      sent_s;
    check_int "exactly one bit flipped" 1 !diff_bits
  | l -> Alcotest.failf "expected one frame, got %d" (List.length l));
  check_int "corrupt counter" 1 (Netsim.Bridge.fault_counts br).Netsim.fc_corrupted

let test_corrupt_skips_non_ip () =
  let sim, br, a, b = two_nics () in
  Netsim.Bridge.set_faults br a (Netsim.Faults.make ~corrupt:1.0 ());
  let got = collect_rx b in
  (* ARP-like frame: no transport checksum protects it, so the fault layer
     must leave it alone. *)
  let f = ip_frame ~dst:(Netsim.Nic.mac b) ~src:(Netsim.Nic.mac a) (String.make 40 'a') in
  Bytestruct.BE.set_uint16 f 12 0x0806;
  let sent_s = Bytestruct.to_string f in
  Netsim.Nic.send a f;
  Engine.Sim.run sim;
  (match got () with
  | [ rx ] -> check_string "non-IP frame untouched" sent_s rx
  | _ -> Alcotest.fail "expected one frame");
  check_int "not counted" 0 (Netsim.Bridge.fault_counts br).Netsim.fc_corrupted

let test_link_flap () =
  let sim, br, a, b = two_nics ~latency_ns:0 () in
  (* Down for 100 us out of every 200 us, starting at t = 50 us. *)
  Netsim.Bridge.set_faults br a (Netsim.Faults.make ~flap:(50_000, 100_000, 200_000) ());
  let got = collect_rx b in
  let send_at t p =
    ignore
      (Engine.Sim.at sim ~time:t (fun () ->
           Netsim.Nic.send a (ip_frame ~dst:(Netsim.Nic.mac b) ~src:(Netsim.Nic.mac a) p)))
  in
  send_at 0 "a" (* before first outage: up *);
  send_at 60_000 "b" (* 10 us into outage: down *);
  send_at 160_000 "c" (* 110 us into period: up *);
  send_at 260_000 "d" (* 10 us into second outage: down *);
  Engine.Sim.run sim;
  let payloads = List.map (fun s -> String.sub s 14 1) (got ()) in
  check_bool "only up-window frames pass" true (payloads = [ "a"; "c" ]);
  check_int "flap counter" 2 (Netsim.Bridge.fault_counts br).Netsim.fc_flap_dropped

let test_fault_replay_determinism () =
  (* Same seed, same program: identical arrival times, payloads and fault
     counts — the replay-from-seed guarantee the chaos harness rests on. *)
  let run_once () =
    let sim = Engine.Sim.create ~seed:1234 () in
    let br = Netsim.Bridge.create sim in
    let a = Netsim.Bridge.new_nic br ~mac:(Netsim.mac_of_int 1) () in
    let b = Netsim.Bridge.new_nic br ~mac:(Netsim.mac_of_int 2) () in
    Netsim.Bridge.set_faults br a
      (Netsim.Faults.make
         ~ge:(Netsim.Faults.burst_loss ~avg_loss:0.3 ~burst_len:3)
         ~reorder:(0.3, 200_000) ~duplicate:0.2 ~corrupt:0.2 ~jitter_ns:100_000 ());
    let got = ref [] in
    Netsim.Nic.set_rx b (fun f ->
        got := (Engine.Sim.now sim, Bytestruct.to_string f) :: !got);
    for i = 0 to 49 do
      Netsim.Nic.send a
        (ip_frame ~dst:(Netsim.Nic.mac b) ~src:(Netsim.Nic.mac a) (Printf.sprintf "frame-%02d-xxxxxxxxxxxxxxxx" i))
    done;
    Engine.Sim.run sim;
    (List.rev !got, Netsim.Bridge.fault_counts br)
  in
  let r1, c1 = run_once () in
  let r2, c2 = run_once () in
  check_bool "some frames made it" true (List.length r1 > 0);
  check_bool "some faults fired" true (c1.Netsim.fc_burst_dropped > 0);
  check_bool "identical arrivals" true (r1 = r2);
  check_bool "identical fault counts" true (c1 = c2)

(* With tracing on, each injected fault is one [netsim.fault.*] event:
   the trace's per-name counts equal the bridge's own record. *)
let test_fault_events_match_counts () =
  Trace.quiesce ();
  Trace.enable ();
  Fun.protect ~finally:Trace.quiesce (fun () ->
      let sim, br, a, b = two_nics ~latency_ns:0 () in
      Netsim.Bridge.set_faults br a
        (Netsim.Faults.make
           ~ge:(Netsim.Faults.burst_loss ~avg_loss:0.2 ~burst_len:3)
           ~reorder:(0.3, 200_000) ~duplicate:0.2 ~corrupt:0.2
           ~flap:(500_000, 200_000, 1_000_000)
           ~drop_when:(fun ~now_ns:_ ~nth _ -> nth mod 11 = 5)
           ());
      Netsim.Nic.set_rx b ignore;
      for i = 0 to 199 do
        ignore
          (Engine.Sim.at sim ~time:(i * 20_000) (fun () ->
               Netsim.Nic.send a
                 (ip_frame ~dst:(Netsim.Nic.mac b) ~src:(Netsim.Nic.mac a) (String.make 40 'f'))))
      done;
      Engine.Sim.run sim;
      let fc = Netsim.Bridge.fault_counts br in
      let counts = Trace.counts () in
      List.iter
        (fun (kind, n) ->
          check_bool (kind ^ " fired") true (n > 0);
          check_int kind n
            (Option.value ~default:0 (List.assoc_opt ("netsim.fault." ^ kind) counts)))
        [
          ("corrupt", fc.Netsim.fc_corrupted);
          ("duplicate", fc.Netsim.fc_duplicated);
          ("reorder", fc.Netsim.fc_reordered);
          ("script_drop", fc.Netsim.fc_script_dropped);
          ("flap_drop", fc.Netsim.fc_flap_dropped);
          ("burst_drop", fc.Netsim.fc_burst_dropped);
        ])

let () =
  Alcotest.run "netsim"
    [
      ( "bridge",
        [
          Alcotest.test_case "mac utils" `Quick test_mac_utils;
          Alcotest.test_case "flood then learn" `Quick test_flood_then_learn;
          Alcotest.test_case "services enumeration order" `Quick test_services_enumeration_order;
          Alcotest.test_case "broadcast" `Quick test_broadcast;
          Alcotest.test_case "no self delivery" `Quick test_no_self_delivery;
          Alcotest.test_case "latency" `Quick test_latency;
          Alcotest.test_case "bandwidth serialisation" `Quick test_bandwidth_serialisation;
          Alcotest.test_case "loss" `Quick test_loss;
          Alcotest.test_case "wire owns frame" `Quick test_wire_owns_frame;
          Alcotest.test_case "corruption copies before mutating" `Quick
            test_corruption_copies_before_mutating;
          Alcotest.test_case "tap" `Quick test_tap;
          Alcotest.test_case "counters" `Quick test_counters;
          Alcotest.test_case "short frame rejected" `Quick test_short_frame_rejected;
        ] );
      ( "faults",
        [
          Alcotest.test_case "gilbert-elliott all bad" `Quick test_ge_all_bad;
          Alcotest.test_case "gilbert-elliott stays good" `Quick test_ge_stays_good;
          Alcotest.test_case "burst_loss parameters" `Quick test_burst_loss_params;
          Alcotest.test_case "scripted drop" `Quick test_scripted_drop;
          Alcotest.test_case "reorder" `Quick test_reorder;
          Alcotest.test_case "duplicate" `Quick test_duplicate;
          Alcotest.test_case "corrupt flips one bit" `Quick test_corrupt;
          Alcotest.test_case "corrupt skips non-ip" `Quick test_corrupt_skips_non_ip;
          Alcotest.test_case "link flap" `Quick test_link_flap;
          Alcotest.test_case "replay determinism" `Quick test_fault_replay_determinism;
          Alcotest.test_case "fault events match the bridge's counts" `Quick
            test_fault_events_match_counts;
        ] );
    ]
