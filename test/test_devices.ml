open Testlib
module P = Mthread.Promise
open P.Infix

(* ---- Netif ---- *)

let vif ?rx_slots w name =
  let dom = domain w ~name () in
  let nic = Netsim.Bridge.new_nic w.bridge ~mac:(Netsim.mac_of_int (10 + dom.Xensim.Domain.id)) () in
  (nic, Devices.Netif.connect w.hv ~dom ~backend_dom:w.dom0 ~nic ?rx_slots ())

let netif_pair () =
  let w = create () in
  let _, na = vif w "neta" in
  let nic_b, nb = vif w "netb" in
  (w, na, nic_b, nb)

let eth_frame ~dst ~src payload =
  let b = Bytestruct.create (14 + String.length payload) in
  Bytestruct.set_string b 0 dst;
  Bytestruct.set_string b 6 src;
  Bytestruct.BE.set_uint16 b 12 0x0800;
  Bytestruct.set_string b 14 payload;
  b

let test_netif_tx_rx () =
  let w, na, _, nb = netif_pair () in
  let got = ref [] in
  Devices.Netif.set_listener nb (fun frame -> got := Bytestruct.to_string frame :: !got);
  let frame = eth_frame ~dst:(Devices.Netif.mac nb) ~src:(Devices.Netif.mac na) "payload!" in
  ignore (run w (Devices.Netif.write na frame));
  Engine.Sim.run w.sim;
  (match !got with
  | [ f ] -> check_string "payload intact" "payload!" (String.sub f 14 8)
  | l -> Alcotest.fail (Printf.sprintf "expected 1 frame, got %d" (List.length l)));
  check_int "tx counted" 1 (Devices.Netif.tx_frames na);
  check_int "rx counted" 1 (Devices.Netif.rx_frames nb)

let test_netif_tx_zero_copy_rx_grant_copy () =
  (* Paper 3.4.1: transmit passes pages by grant reference (maps, no
     copies); receive uses grant copy (netback's GNTTABOP_copy). *)
  let w, na, _, nb = netif_pair () in
  Devices.Netif.set_listener nb (fun _ -> ());
  let stats = w.hv.Xensim.Hypervisor.stats in
  Xensim.Xstats.reset stats;
  let frame = eth_frame ~dst:(Devices.Netif.mac nb) ~src:(Devices.Netif.mac na) "zc" in
  ignore (run w (Devices.Netif.write na frame));
  Engine.Sim.run w.sim;
  check_bool "tx used grant map" true (stats.Xensim.Xstats.grant_maps >= 1);
  check_int "rx used exactly one grant copy" 1 stats.Xensim.Xstats.grant_copies

let test_netif_grants_released () =
  let w, na, _, nb = netif_pair () in
  Devices.Netif.set_listener nb (fun _ -> ());
  let gt = w.hv.Xensim.Hypervisor.gnttab in
  let before = Xensim.Gnttab.active_grants gt in
  let frame = eth_frame ~dst:(Devices.Netif.mac nb) ~src:(Devices.Netif.mac na) "x" in
  for _ = 1 to 50 do
    ignore (run w (Devices.Netif.write na frame))
  done;
  Engine.Sim.run w.sim;
  (* TX grants are revoked on response; RX credit stays constant. *)
  check_int "no grant leak" before (Xensim.Gnttab.active_grants gt)

let test_netif_pipelining_many_frames () =
  let w, na, _, nb = netif_pair () in
  let count = ref 0 in
  Devices.Netif.set_listener nb (fun _ -> incr count);
  let frame = eth_frame ~dst:(Devices.Netif.mac nb) ~src:(Devices.Netif.mac na) (String.make 1000 'd') in
  let send_all = P.join (List.init 500 (fun _ -> Devices.Netif.write na frame)) in
  ignore (run w send_all);
  Engine.Sim.run w.sim;
  check_int "all 500 through the ring" 500 !count

let test_netif_rx_drop_without_credit () =
  let w, na, _, nb = netif_pair () in
  ignore na;
  Devices.Netif.set_listener nb (fun _ -> ());
  (* A third NIC with effectively infinite bandwidth and zero latency
     delivers a burst in one instant, exhausting the 511 posted receive
     buffers before the frontend can repost. *)
  let src = Netsim.mac_of_int 99 in
  let c =
    Netsim.Bridge.new_nic w.bridge ~bandwidth_bps:max_int ~latency_ns:0 ~mac:src ()
  in
  for _ = 1 to 1200 do
    Netsim.Nic.send c (eth_frame ~dst:(Devices.Netif.mac nb) ~src "flood")
  done;
  Engine.Sim.run w.sim;
  check_bool "some frames dropped for lack of credit" true (Devices.Netif.rx_dropped nb > 0);
  check_bool "some frames delivered" true (Devices.Netif.rx_frames nb > 0)

(* Each ring page holds exactly its slots: a full TX ring, and an RX
   ring just big enough for the posted credit (credit <= slots - 1). *)
let test_netif_rings_sized_to_credit () =
  let w = create () in
  let _, storm = vif w ~rx_slots:64 "storm" in
  let _, dflt = vif w "default" in
  check_int "rx_slots:64 -> 128-slot rx ring" 128 (Devices.Netif.rx_ring_slots storm);
  check_int "rx_slots:64 -> 64 credits posted" 64 (Devices.Netif.rx_posted storm);
  check_int "rx_slots:64 -> 128-slot tx ring" 128 (Devices.Netif.tx_ring_slots storm);
  check_int "default -> 512-slot rx ring" 512 (Devices.Netif.rx_ring_slots dflt);
  check_int "default -> 511 credits posted" 511 (Devices.Netif.rx_posted dflt);
  check_int "default tx ring" 512 (Devices.Netif.tx_ring_slots dflt)

(* The small ring wraps many times over under a paced stream and every
   consumed credit is reposted. *)
let test_netif_small_rx_ring_wraps () =
  let w = create () in
  let _, tx = vif w "tx" in
  let _, rx = vif w ~rx_slots:64 "rx" in
  let count = ref 0 in
  Devices.Netif.set_listener rx (fun _ -> incr count);
  let frame = eth_frame ~dst:(Devices.Netif.mac rx) ~src:(Devices.Netif.mac tx) (String.make 200 'r') in
  ignore (run w (P.join (List.init 1000 (fun _ -> Devices.Netif.write tx frame))));
  Engine.Sim.run w.sim;
  check_int "every frame delivered or dropped" 1000 (!count + Devices.Netif.rx_dropped rx);
  check_bool "ring wrapped several times" true (!count > 4 * 128);
  check_int "credit fully reposted" 64 (Devices.Netif.rx_posted rx)

(* On either attachment: the PV vif [na] and a direct one. *)
let test_netif_mtu_enforced () =
  let w, na, _, _ = netif_pair () in
  let nic = Netsim.Bridge.new_nic w.bridge ~mac:(Netsim.mac_of_int 50) () in
  let direct = Devices.Netif.connect_direct ~dom:(domain w ~name:"direct" ()) ~nic () in
  List.iter
    (fun vif ->
      match Devices.Netif.write vif (Bytestruct.create 1600) with
      | exception Invalid_argument _ -> check_int "not counted" 0 (Devices.Netif.tx_frames vif)
      | _ -> Alcotest.fail "oversized frame rejected")
    [ na; direct ]

(* [Netif.tx_doorbells] counts evtchn notifies on the TX ring, whether
   or not tracing is on. Each frame pushes its request on its own and
   notifies unless the backend has not yet caught up with the previous
   notify (Xen's RING_PUSH_REQUESTS_AND_CHECK_NOTIFY): an idle vif rings
   once per frame, and a pipelined burst is picked up by the backend's
   consume loop behind the first doorbell. *)
let test_netif_tx_doorbells () =
  let burst (w, na, _, nb) n =
    let frame = eth_frame ~dst:(Devices.Netif.mac nb) ~src:(Devices.Netif.mac na) (String.make 1000 'b') in
    let before = Devices.Netif.tx_doorbells () and sent = Devices.Netif.tx_frames na in
    ignore (run w (P.join (List.init n (fun _ -> Devices.Netif.write na frame))));
    Engine.Sim.run w.sim;
    check_int "every frame sent" n (Devices.Netif.tx_frames na - sent);
    Devices.Netif.tx_doorbells () - before
  in
  let pair () =
    let (_, _, _, nb) as p = netif_pair () in
    Devices.Netif.set_listener nb (fun _ -> ());
    p
  in
  Trace.quiesce ();
  check_int "one frame to an idle vif" 1 (burst (pair ()) 1);
  let p = pair () in
  check_int "32-frame pipelined burst" 1 (burst p 32);
  check_int "one frame once the vif is idle again" 1 (burst p 1);
  Fun.protect ~finally:Trace.quiesce (fun () ->
      Trace.enable ();
      check_int "tracing on: the same count" 1 (burst (pair ()) 8))

(* One receive credit gives a 2-slot TX ring. A burst of 16 writes,
   faster than netback answers, fills it: the third write parks until a
   TX response frees a slot, each parked write is counted, and every
   frame still reaches the peer. *)
let test_netif_full_tx_ring_parks () =
  let w = create () in
  let _, tx = vif w ~rx_slots:1 "tx" in
  let _, rx = vif w "rx" in
  check_int "2-slot tx ring" 2 (Devices.Netif.tx_ring_slots tx);
  let count = ref 0 in
  Devices.Netif.set_listener rx (fun _ -> incr count);
  let frame = eth_frame ~dst:(Devices.Netif.mac rx) ~src:(Devices.Netif.mac tx) (String.make 200 'p') in
  let before = Devices.Netif.tx_full_parks () in
  ignore (run w (P.join (List.init 16 (fun _ -> Devices.Netif.write tx frame))));
  Engine.Sim.run w.sim;
  check_bool "writes parked on the full ring" true (Devices.Netif.tx_full_parks () - before > 0);
  check_int "every frame delivered" 16 !count

(* ---- Netif teardown ---- *)

(* Teardown mid-frame must leave no grant, no buffer and no event behind:
   [disconnect] can land while a frame is anywhere between the wire and
   the listener. Each case connects the vif under test into a world
   whose other vifs stay up, and checks the grant table against its
   value before that vif was connected. *)
let assert_torn_down w ~grants pools =
  check_int "every grant revoked" grants (Xensim.Gnttab.active_grants w.hv.Xensim.Hypervisor.gnttab);
  List.iter (fun pool -> check_int "every buffer released" 0 (Pktbuf.outstanding pool)) pools

let step_until w what cond =
  while not (cond ()) do
    if not (Engine.Sim.step w.sim) then Alcotest.fail ("simulation ended before " ^ what)
  done

(* The response has been consumed and the frame waits on the vCPU's
   receive work when the vif goes away: the deferred delivery must drop
   it instead of reposting credit and notifying a closed port. *)
let test_netif_disconnect_mid_delivery () =
  let w = create () in
  let _, na = vif w "neta" in
  let grants = Xensim.Gnttab.active_grants w.hv.Xensim.Hypervisor.gnttab in
  let _, nb = vif ~rx_slots:64 w "netb" in
  let delivered = ref 0 in
  Devices.Netif.set_listener nb (fun _ -> incr delivered);
  ignore (Devices.Netif.write na (eth_frame ~dst:(Devices.Netif.mac nb) ~src:(Devices.Netif.mac na) "late"));
  step_until w "the response was consumed" (fun () -> Devices.Netif.rx_frames nb = 1);
  check_int "not yet delivered" 0 !delivered;
  Devices.Netif.disconnect nb;
  Engine.Sim.run w.sim;
  check_int "dropped, not delivered" 0 !delivered;
  assert_torn_down w ~grants [ Devices.Netif.pool na; Devices.Netif.pool nb ]

(* The frame has been granted and queued, but the vCPU charge that puts
   it on the ring completes after teardown: it is dropped unpushed. A
   write issued after teardown is dropped before it takes a grant. *)
let test_netif_disconnect_mid_write () =
  let w = create () in
  let _, nb = vif w "netb" in
  let grants = Xensim.Gnttab.active_grants w.hv.Xensim.Hypervisor.gnttab in
  let _, na = vif w "neta" in
  Devices.Netif.set_listener nb (fun _ -> ());
  let pb = Pktbuf.alloc (Devices.Netif.pool na) in
  let payload = eth_frame ~dst:(Devices.Netif.mac nb) ~src:(Devices.Netif.mac na) "late" in
  let frame = Pktbuf.view pb ~off:0 ~len:(Bytestruct.length payload) in
  Bytestruct.blit payload 0 frame 0 (Bytestruct.length payload);
  let written = Devices.Netif.write ~owner:pb na frame in
  check_bool "charge still pending" true (P.state written = `Pending);
  Devices.Netif.disconnect na;
  Engine.Sim.run w.sim;
  check_int "nothing reached the peer" 0 (Devices.Netif.rx_frames nb);
  check_bool "the write resolves as a drop" true (P.state written = `Resolved ());
  let pb = Pktbuf.alloc (Devices.Netif.pool na) in
  let after = Devices.Netif.write ~owner:pb na (Pktbuf.view pb ~off:0 ~len:(Bytestruct.length payload)) in
  Engine.Sim.run w.sim;
  check_bool "a write after teardown is a drop too" true (P.state after = `Resolved ());
  assert_torn_down w ~grants [ Devices.Netif.pool na; Devices.Netif.pool nb ]

(* Netback has copied the frame into a credit (materialising its
   buffer) and pushed the response, but the frontend has not consumed
   it: [disconnect] revokes that grant with the rest and releases the
   buffer itself. *)
let test_netif_disconnect_after_copy () =
  let w = create () in
  let _, na = vif w "neta" in
  let grants = Xensim.Gnttab.active_grants w.hv.Xensim.Hypervisor.gnttab in
  let _, nb = vif ~rx_slots:64 w "netb" in
  Devices.Netif.set_listener nb (fun _ -> ());
  let pool = Devices.Netif.pool nb in
  ignore (Devices.Netif.write na (eth_frame ~dst:(Devices.Netif.mac nb) ~src:(Devices.Netif.mac na) "copied"));
  step_until w "netback copied the frame" (fun () -> Pktbuf.outstanding pool = 1);
  check_int "response not consumed yet" 0 (Devices.Netif.rx_frames nb);
  check_int "all credit still posted" 64 (Devices.Netif.rx_posted nb);
  Devices.Netif.disconnect nb;
  check_int "credit dropped" 0 (Devices.Netif.rx_posted nb);
  check_int "copied buffer released by disconnect" 0 (Pktbuf.outstanding pool);
  Engine.Sim.run w.sim;
  check_int "never consumed" 0 (Devices.Netif.rx_frames nb);
  assert_torn_down w ~grants [ Devices.Netif.pool na; pool ]

(* What an idle vif costs: 64 posted credits, two rings, ports, grants.
   Credit is two ring-indexed arrays plus one grant entry per slot, and
   an idle vif holds no packet buffer. Measured at 15.1 KB with both
   rings at 128 slots (21.3 KB when the TX ring had 512); the bound
   fails if a 512-slot TX ring page (8.2 KB) or per-credit heap objects
   (a lazy buffer and closures per credit cost ~33 KB per vif) come
   back. *)
let test_netif_idle_footprint () =
  let n = 200 in
  let w = create () in
  let hosts =
    List.init n (fun i ->
        let dom = domain w ~name:(Printf.sprintf "idle%d" i) () in
        (dom, Netsim.Bridge.new_nic w.bridge ~mac:(Netsim.mac_of_int (10 + dom.Xensim.Domain.id)) ()))
  in
  let live () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words * (Sys.word_size / 8)
  in
  let before = live () in
  let vifs =
    List.map
      (fun (dom, nic) -> Devices.Netif.connect w.hv ~dom ~backend_dom:w.dom0 ~nic ~rx_slots:64 ())
      hosts
  in
  Engine.Sim.run w.sim;
  let per_vif = (live () - before) / n in
  List.iter (fun v -> check_int "credit posted" 64 (Devices.Netif.rx_posted v)) vifs;
  List.iter (fun v -> check_int "no buffer held" 0 (Pktbuf.bytes_reserved (Devices.Netif.pool v))) vifs;
  check_bool (Printf.sprintf "%d B live per idle vif <= 16 KB" per_vif) true (per_vif <= 16 * 1024)

(* ---- Netif, direct attachment ---- *)

(* A host-kernel vif (the POSIX targets): no rings, grants or backend
   domain, but the same counters, taps and teardown as a PV one. *)
let direct_vif w name =
  let dom = domain w ~name () in
  let nic = Netsim.Bridge.new_nic w.bridge ~mac:(Netsim.mac_of_int (10 + dom.Xensim.Domain.id)) () in
  Devices.Netif.connect_direct ~dom ~nic ()

let direct_pair () =
  let w = create () in
  let a = direct_vif w "a" in
  let b = direct_vif w "b" in
  (w, a, b, fun payload -> eth_frame ~dst:(Devices.Netif.mac b) ~src:(Devices.Netif.mac a) payload)

let send w a frame =
  ignore (run w (Devices.Netif.write a frame));
  Engine.Sim.run w.sim

let test_direct_counters () =
  let w, a, b, frame = direct_pair () in
  send w a (frame "unheard");
  check_int "tx counted" 1 (Devices.Netif.tx_frames a);
  check_int "no listener: dropped" 1 (Devices.Netif.rx_dropped b);
  check_int "no listener: not received" 0 (Devices.Netif.rx_frames b);
  let got = ref [] in
  Devices.Netif.set_listener b (fun f -> got := Bytestruct.to_string f :: !got);
  send w a (frame "direct!");
  (match !got with
  | [ f ] -> check_string "payload intact" "direct!" (String.sub f 14 7)
  | l -> Alcotest.fail (Printf.sprintf "expected 1 frame, got %d" (List.length l)));
  check_int "tx counted again" 2 (Devices.Netif.tx_frames a);
  check_int "rx counted" 1 (Devices.Netif.rx_frames b);
  check_int "drops unchanged" 1 (Devices.Netif.rx_dropped b);
  check_int "no tx ring" 0 (Devices.Netif.tx_ring_slots a);
  check_int "no rx ring" 0 (Devices.Netif.rx_ring_slots b);
  check_int "no credit" 0 (Devices.Netif.rx_posted b)

(* Tx taps fire on the sender as it writes, Rx taps on the receiver at
   delivery, each with its own NIC as the link; [untap] detaches only
   the handle it is given. *)
let test_direct_taps () =
  let w, a, b, frame = direct_pair () in
  Devices.Netif.set_listener b ignore;
  let seen = ref [] in
  let record name ~dir ~link ~time_ns:_ f =
    let dir = match dir with Netsim.Tx -> "tx" | Netsim.Rx -> "rx" in
    seen := Printf.sprintf "%s %s link=%d len=%d" name dir link (Bytestruct.length f) :: !seen
  in
  let ha = Devices.Netif.tap a (record "a") in
  let ha2 = Devices.Netif.tap a (record "a2") in
  let hb = Devices.Netif.tap b (record "b") in
  let id v = Netsim.Nic.id (Devices.Netif.nic v) in
  let expect what f lines =
    seen := [];
    send w a f;
    let len = Bytestruct.length f in
    Alcotest.(check (list string))
      what
      (List.map (fun (name, dir, v) -> Printf.sprintf "%s %s link=%d len=%d" name dir (id v) len) lines)
      (List.sort compare !seen)
  in
  expect "one tx per tap on a, one rx on b" (frame "tapped")
    [ ("a", "tx", a); ("a2", "tx", a); ("b", "rx", b) ];
  Devices.Netif.untap a ha;
  Devices.Netif.untap b hb;
  expect "only the tap left installed fires" (frame "once more") [ ("a2", "tx", a) ];
  Devices.Netif.untap a ha2;
  expect "no tap left" (frame "untapped") []

(* After [disconnect] the vif takes nothing from the wire: its listener
   and taps stay silent and nothing is counted. *)
let test_direct_disconnect_rx () =
  let w, a, b, frame = direct_pair () in
  let delivered = ref 0 and tapped = ref 0 in
  Devices.Netif.set_listener b (fun _ -> incr delivered);
  ignore (Devices.Netif.tap b (fun ~dir:_ ~link:_ ~time_ns:_ _ -> incr tapped));
  Devices.Netif.disconnect b;
  send w a (frame "too late");
  check_int "listener got nothing" 0 !delivered;
  check_int "taps got nothing" 0 !tapped;
  check_int "nothing received" 0 (Devices.Netif.rx_frames b)

(* A disconnected direct vif drops what it is asked to send, as a PV one
   does: whether the write comes after [disconnect] or its vCPU work
   completes after it, the peer on the bridge gets nothing, the buffer
   goes back to the pool and the write resolves. *)
let test_direct_disconnect_tx () =
  let w, a, b, frame = direct_pair () in
  let delivered = ref 0 in
  Devices.Netif.set_listener b (fun _ -> incr delivered);
  let pool = Devices.Netif.pool a in
  let owned payload =
    let f = frame payload in
    let pb = Pktbuf.alloc pool in
    let view = Pktbuf.view pb ~off:0 ~len:(Bytestruct.length f) in
    Bytestruct.blit f 0 view 0 (Bytestruct.length f);
    (pb, view)
  in
  let pb, view = owned "in flight" in
  let in_flight = Devices.Netif.write ~owner:pb a view in
  check_bool "charge still pending" true (P.state in_flight = `Pending);
  Devices.Netif.disconnect a;
  Engine.Sim.run w.sim;
  check_bool "the in-flight write resolves" true (P.state in_flight = `Resolved ());
  let pb, view = owned "after" in
  let after = Devices.Netif.write ~owner:pb a view in
  Engine.Sim.run w.sim;
  check_bool "a write after teardown resolves" true (P.state after = `Resolved ());
  check_int "nothing reached the peer" 0 !delivered;
  check_int "nothing received" 0 (Devices.Netif.rx_frames b);
  check_int "the write after teardown is not counted" 1 (Devices.Netif.tx_frames a);
  check_int "every buffer released" 0 (Pktbuf.outstanding pool)

(* ---- Blkif ---- *)

let blkif_world () =
  let w = create () in
  let dom = domain w ~name:"guest" () in
  let disk = Blockdev.Disk.create w.sim ~sectors:4096 () in
  let blkif = Devices.Blkif.connect w.hv ~dom ~backend_dom:w.dom0 ~disk () in
  (w, disk, blkif)

let test_blkif_write_read () =
  let w, _, blkif = blkif_world () in
  let data = pattern 2048 in
  ignore (run w (Devices.Blkif.write blkif ~sector:10 (bs data)));
  let back = run w (Devices.Blkif.read blkif ~sector:10 ~count:4) in
  check_bool "read back" true (Bytestruct.to_string back = data)

let test_blkif_write_durable_on_disk () =
  let w, disk, blkif = blkif_world () in
  ignore (run w (Devices.Blkif.write blkif ~sector:0 (bs (pattern 512))));
  check_string "bytes on the device" (pattern 512)
    (Bytestruct.to_string (Blockdev.Disk.peek disk ~sector:0 ~count:1))

let test_blkif_concurrent_requests () =
  let w, _, blkif = blkif_world () in
  let write i =
    Devices.Blkif.write blkif ~sector:(i * 8) (bs (String.make 512 (Char.chr (65 + i))))
  in
  ignore (run w (P.join (List.init 20 write)));
  let read i =
    Devices.Blkif.read blkif ~sector:(i * 8) ~count:1 >|= fun b -> Bytestruct.get_uint8 b 0
  in
  let chars = run w (P.all (List.init 20 read)) in
  List.iteri (fun i c -> check_int "right sector" (65 + i) c) chars

let test_blkif_out_of_range () =
  let w, _, blkif = blkif_world () in
  match run w (Devices.Blkif.read blkif ~sector:100_000 ~count:1) with
  | exception _ -> ()
  | _ -> Alcotest.fail "out of range read must fail"

let test_blkif_partial_sector_rejected () =
  let w, _, blkif = blkif_world () in
  ignore w;
  match Devices.Blkif.write blkif ~sector:0 (bs "short") with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "partial sector write rejected"

let test_blkif_large_request_single_ring_slot () =
  let w, _, blkif = blkif_world () in
  let big = pattern (512 * 1024) in
  ignore (run w (Devices.Blkif.write blkif ~sector:0 (bs big)));
  let back = run w (Devices.Blkif.read blkif ~sector:0 ~count:1024) in
  check_bool "512 KiB roundtrip" true (Bytestruct.to_string back = big);
  (* one write + one read *)
  check_int "two ring requests" 2 (Devices.Blkif.requests_issued blkif)

(* ---- Console ---- *)

let test_console_lines () =
  let c = Devices.Console.create () in
  Devices.Console.write c "boot";
  Devices.Console.write c "ing\n";
  Devices.Console.write c "two\nthree: part";
  Alcotest.(check (list string)) "complete lines" [ "booting"; "two" ] (Devices.Console.log c);
  check_string "partial retained" "three: part" (Devices.Console.partial c)

let test_console_boot_banner () =
  let w = create () in
  let u =
    run w
      (Core.Unikernel.boot w.hv w.toolstack ~config:(Core.Appliance.dns_appliance ()) ~mem_mib:32
         ~main:(fun _ -> Mthread.Promise.return 0) ())
  in
  Engine.Sim.run w.sim;
  match Devices.Console.log u.Core.Unikernel.console with
  | banner :: _ ->
    check_bool "banner mentions the appliance" true
      (let needle = "dns-appliance" in
       let n = String.length needle and h = String.length banner in
       let rec go i = i + n <= h && (String.sub banner i n = needle || go (i + 1)) in
       go 0)
  | [] -> Alcotest.fail "no banner line"

let () =
  Alcotest.run "devices"
    [
      ( "netif",
        [
          Alcotest.test_case "tx/rx" `Quick test_netif_tx_rx;
          Alcotest.test_case "tx zero-copy, rx grant-copy" `Quick test_netif_tx_zero_copy_rx_grant_copy;
          Alcotest.test_case "grants released" `Quick test_netif_grants_released;
          Alcotest.test_case "pipelines many frames" `Quick test_netif_pipelining_many_frames;
          Alcotest.test_case "rx drops without credit" `Quick test_netif_rx_drop_without_credit;
          Alcotest.test_case "mtu enforced" `Quick test_netif_mtu_enforced;
          Alcotest.test_case "rings sized to credit" `Quick test_netif_rings_sized_to_credit;
          Alcotest.test_case "small rx ring wraps" `Quick test_netif_small_rx_ring_wraps;
          Alcotest.test_case "tx doorbells" `Quick test_netif_tx_doorbells;
          Alcotest.test_case "full tx ring parks writers" `Quick test_netif_full_tx_ring_parks;
          Alcotest.test_case "disconnect mid-delivery" `Quick test_netif_disconnect_mid_delivery;
          Alcotest.test_case "disconnect mid-write" `Quick test_netif_disconnect_mid_write;
          Alcotest.test_case "disconnect after netback copy" `Quick test_netif_disconnect_after_copy;
          Alcotest.test_case "idle footprint" `Quick test_netif_idle_footprint;
          Alcotest.test_case "direct counters" `Quick test_direct_counters;
          Alcotest.test_case "direct taps" `Quick test_direct_taps;
          Alcotest.test_case "direct disconnect stops rx" `Quick test_direct_disconnect_rx;
          Alcotest.test_case "direct disconnect drops tx" `Quick test_direct_disconnect_tx;
        ] );
      ( "console",
        [
          Alcotest.test_case "line buffering" `Quick test_console_lines;
          Alcotest.test_case "unikernel boot banner" `Quick test_console_boot_banner;
        ] );
      ( "blkif",
        [
          Alcotest.test_case "write/read" `Quick test_blkif_write_read;
          Alcotest.test_case "durable on disk" `Quick test_blkif_write_durable_on_disk;
          Alcotest.test_case "concurrent requests" `Quick test_blkif_concurrent_requests;
          Alcotest.test_case "out of range" `Quick test_blkif_out_of_range;
          Alcotest.test_case "partial sector rejected" `Quick test_blkif_partial_sector_rejected;
          Alcotest.test_case "large single request" `Quick test_blkif_large_request_single_ring_slot;
        ] );
    ]
