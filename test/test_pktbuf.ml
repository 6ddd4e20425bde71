open Testlib
module Pb = Pktbuf

(* ---- pool recycling ---- *)

let test_pool_grow_and_recycle () =
  let p = Pb.create_pool () in
  check_int "pool starts empty" 0 (Pb.free_buffers p);
  check_int "nothing reserved yet" 0 (Pb.bytes_reserved p);
  let b = Pb.alloc p in
  check_int "grew by exactly one buffer" 0 (Pb.free_buffers p);
  check_int "one outstanding" 1 (Pb.outstanding p);
  check_int "fresh buffer has one ref" 1 (Pb.refs b);
  check_int "arena is one buffer" Pb.buf_bytes (Pb.bytes_reserved p);
  Pb.release b;
  check_int "released buffer back on freelist" 1 (Pb.free_buffers p);
  check_int "none outstanding" 0 (Pb.outstanding p);
  (* Steady-state recycling: alloc/release cycles reuse the one buffer
     and the arena never grows. *)
  for _ = 1 to 10 do
    let again = Pb.alloc p in
    check_bool "recycled buffer reuses storage" true (Pb.storage again == Pb.storage b);
    Pb.release again
  done;
  check_int "recycling does not grow the arena" Pb.buf_bytes (Pb.bytes_reserved p)

let test_pool_grows_under_pressure () =
  let p = Pb.create_pool () in
  let bufs = List.init 5 (fun _ -> Pb.alloc p) in
  check_int "five outstanding" 5 (Pb.outstanding p);
  check_int "arena is the high-water mark" (5 * Pb.buf_bytes) (Pb.bytes_reserved p);
  List.iter Pb.release bufs;
  check_int "all returned" 5 (Pb.free_buffers p);
  (* Below the high-water mark nothing grows. *)
  let again = List.init 3 (fun _ -> Pb.alloc p) in
  check_int "arena never shrinks or regrows" (5 * Pb.buf_bytes) (Pb.bytes_reserved p);
  List.iter Pb.release again

(* Pools share one freelist, so storage one device releases is the next
   any device allocates; the accounting stays per pool. *)
let test_pools_share_freelist () =
  let a = Pb.create_pool () in
  let b = Pb.create_pool () in
  let from_a = Pb.alloc a in
  Pb.release from_a;
  let from_b = Pb.alloc b in
  check_bool "no growth: b reuses the storage a released" true
    (Pb.storage from_b == Pb.storage from_a);
  check_int "a: nothing outstanding" 0 (Pb.outstanding a);
  check_int "a: its buffer counts as free" 1 (Pb.free_buffers a);
  check_int "a: reserved its high-water mark" Pb.buf_bytes (Pb.bytes_reserved a);
  check_int "b: one outstanding" 1 (Pb.outstanding b);
  check_int "b: nothing free" 0 (Pb.free_buffers b);
  check_int "b: reserved its high-water mark" Pb.buf_bytes (Pb.bytes_reserved b);
  Pb.release from_b;
  check_int "b: returned" 0 (Pb.outstanding b);
  check_int "a untouched by b's release" 1 (Pb.free_buffers a)

(* ---- ownership bugs must raise ---- *)

let test_double_free_raises () =
  let p = Pb.create_pool () in
  let b = Pb.alloc p in
  Pb.release b;
  Alcotest.check_raises "second release" Pb.Double_free (fun () -> Pb.release b);
  Alcotest.check_raises "retain after free" Pb.Double_free (fun () -> Pb.retain b);
  (* The failed release must not have corrupted the freelist. *)
  check_int "buffer parked exactly once" 1 (Pb.free_buffers p);
  let b2 = Pb.alloc p in
  check_int "reallocation works" 1 (Pb.refs b2);
  Pb.release b2

(* ---- refcounts across deferred work ---- *)

(* The RX-chain pattern: the driver owns the buffer for the synchronous
   delivery, a downstream layer defers work over the payload and keeps
   its own reference instead of copying. The buffer must stay off the
   freelist until the deferred callback releases it. *)
let test_refcount_across_deferred () =
  let sim = Engine.Sim.create ~seed:1 () in
  let p = Pb.create_pool () in
  let b = Pb.alloc p in
  Bytestruct.set_uint8 (Pb.storage b) 0 0xab;
  let seen = ref (-1) in
  Pb.with_current b (fun () ->
      match Pb.retain_current () with
      | None -> Alcotest.fail "ambient buffer must be visible"
      | Some owner ->
        check_bool "same buffer" true (owner == b);
        ignore
          (Engine.Sim.schedule sim ~delay:1000 (fun () ->
               seen := Bytestruct.get_uint8 (Pb.storage owner) 0;
               Pb.release owner)));
  (* Driver's reference dropped; the deferred consumer's keeps it live. *)
  Pb.release b;
  check_int "still referenced by deferred work" 1 (Pb.refs b);
  check_int "not recycled yet" 1 (Pb.outstanding p);
  Engine.Sim.run sim;
  check_int "payload read after driver release" 0xab !seen;
  check_int "recycled once deferred work finished" 0 (Pb.outstanding p);
  check_int "back on freelist" 1 (Pb.free_buffers p)

(* ---- the ambient current packet ---- *)

let test_ambient_current_scoping () =
  let p = Pb.create_pool () in
  let b = Pb.alloc p in
  check_bool "no ambient outside delivery" true (Pb.current () = None);
  check_bool "retain_current falls back to None" true (Pb.retain_current () = None);
  Pb.with_current b (fun () ->
      (match Pb.current () with
      | Some cur -> check_bool "ambient is the delivered buffer" true (cur == b)
      | None -> Alcotest.fail "ambient must be set inside with_current"));
  check_bool "ambient restored on exit" true (Pb.current () = None);
  (* Exceptions must not leak the ambient binding. *)
  (try Pb.with_current b (fun () -> raise Exit) with Exit -> ());
  check_bool "ambient restored on exception" true (Pb.current () = None);
  check_int "with_current takes no reference of its own" 1 (Pb.refs b);
  Pb.release b

let test_views_share_storage () =
  let p = Pb.create_pool () in
  let b = Pb.alloc p in
  let v = Pb.view b ~off:8 ~len:4 in
  Bytestruct.set_uint8 v 0 0x55;
  check_int "view aliases the buffer" 0x55 (Bytestruct.get_uint8 (Pb.storage b) 8);
  check_int "view length" 4 (Bytestruct.length v);
  Pb.release b

(* ---- a vif's pool is sized to its use ---- *)

(* Posted receive credit is a promise of a buffer, not a buffer: a
   connected, configured appliance that has moved no frame holds none. *)
let test_fresh_vif_reserves_nothing () =
  let w = create () in
  let h = host w ~announce:false ~name:"fresh" ~ip:"10.0.0.1" () in
  let pool = Devices.Netif.pool h.netif in
  check_int "no frame yet, nothing reserved" 0 (Pb.bytes_reserved pool);
  check_int "no buffer created" 0 (Pb.free_buffers pool + Pb.outstanding pool)

(* One request: each pool reserves at most its peak of buffers in
   flight, sampled after every event, never a pre-sized batch. *)
let test_one_request_reserves_peak_only () =
  let module P = Mthread.Promise in
  let w = create () in
  let a = host w ~announce:false ~name:"client" ~ip:"10.0.0.1" () in
  let b = host w ~announce:false ~name:"server" ~ip:"10.0.0.2" () in
  let pools = [ Devices.Netif.pool a.netif; Devices.Netif.pool b.netif ] in
  Netstack.Tcp.listen (Netstack.Stack.tcp b.stack) ~port:80 (fun flow ->
      P.bind (Netstack.Tcp.read flow) (fun _ ->
          P.bind (Netstack.Tcp.write flow (Bytestruct.of_string "HTTP/1.0 200 OK\r\n\r\n"))
            (fun () -> Netstack.Tcp.close flow)));
  P.async (fun () ->
      P.bind
        (Netstack.Tcp.connect (Netstack.Stack.tcp a.stack) ~dst:(Netstack.Stack.address b.stack)
           ~dst_port:80)
        (fun flow ->
          P.bind (Netstack.Tcp.write flow (Bytestruct.of_string "GET / HTTP/1.0\r\n\r\n"))
            (fun () -> P.bind (Netstack.Tcp.read flow) (fun _ -> Netstack.Tcp.close flow))));
  let peak = List.map (fun p -> ref (Pb.outstanding p)) pools in
  while Engine.Sim.step w.sim do
    List.iter2 (fun p m -> m := max !m (Pb.outstanding p)) pools peak
  done;
  List.iter2
    (fun p m ->
      check_bool "the request moved frames" true (Pb.bytes_reserved p > 0);
      check_bool
        (Printf.sprintf "reserved %d B <= peak %d in flight x %d B" (Pb.bytes_reserved p) !m
           Pb.buf_bytes)
        true
        (Pb.bytes_reserved p <= !m * Pb.buf_bytes))
    pools peak

let () =
  Alcotest.run "pktbuf"
    [
      ( "pool",
        [
          Alcotest.test_case "grow and recycle" `Quick test_pool_grow_and_recycle;
          Alcotest.test_case "grows under pressure" `Quick test_pool_grows_under_pressure;
          Alcotest.test_case "pools share one freelist" `Quick test_pools_share_freelist;
          Alcotest.test_case "fresh vif reserves nothing" `Quick test_fresh_vif_reserves_nothing;
          Alcotest.test_case "one request reserves its peak only" `Quick
            test_one_request_reserves_peak_only;
        ] );
      ( "ownership",
        [
          Alcotest.test_case "double free raises" `Quick test_double_free_raises;
          Alcotest.test_case "refcount across deferred work" `Quick test_refcount_across_deferred;
        ] );
      ( "ambient",
        [
          Alcotest.test_case "current scoping" `Quick test_ambient_current_scoping;
          Alcotest.test_case "views share storage" `Quick test_views_share_storage;
        ] );
    ]
