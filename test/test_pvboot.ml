open Testlib
module P = Mthread.Promise

(* ---- Layout (paper Figure 2) ---- *)

let layout () = Pvboot.Layout.standard ~mem_mib:128 ~text_bytes:200_000 ~data_bytes:50_000

let test_layout_regions_present () =
  let l = layout () in
  List.iter
    (fun kind -> ignore (Pvboot.Layout.find l kind))
    [ Pvboot.Layout.Text; Pvboot.Layout.Data; Pvboot.Layout.Io_pages; Pvboot.Layout.Minor_heap;
      Pvboot.Layout.Major_heap; Pvboot.Layout.Xen_reserved ]

let test_layout_no_overlap () =
  let l = layout () in
  let regions = Pvboot.Layout.regions l in
  List.iteri
    (fun i a ->
      List.iteri
        (fun j b ->
          if i < j then
            check_bool "disjoint" false
              (a.Pvboot.Layout.va < b.Pvboot.Layout.va + b.Pvboot.Layout.len
              && b.Pvboot.Layout.va < a.Pvboot.Layout.va + a.Pvboot.Layout.len))
        regions)
    regions

let test_layout_major_heap_sized_to_memory () =
  let l = layout () in
  let major = Pvboot.Layout.find l Pvboot.Layout.Major_heap in
  check_int "major heap covers guest memory" (128 * 1024 * 1024) major.Pvboot.Layout.len;
  check_int "superpage aligned" 0 (major.Pvboot.Layout.len mod Pvboot.Layout.superpage_bytes)

let test_layout_minor_heap_is_one_extent () =
  let l = layout () in
  let minor = Pvboot.Layout.find l Pvboot.Layout.Minor_heap in
  check_int "single 2MB extent" Pvboot.Layout.minor_heap_extent_bytes minor.Pvboot.Layout.len

let test_layout_install_wxorx () =
  let l = layout () in
  let pt = Xensim.Pagetable.create () in
  Pvboot.Layout.install l pt;
  let text = Pvboot.Layout.find l Pvboot.Layout.Text in
  let major = Pvboot.Layout.find l Pvboot.Layout.Major_heap in
  check_bool "text exec" true (Xensim.Pagetable.can_exec pt ~va:text.Pvboot.Layout.va);
  check_bool "text not writable" false (Xensim.Pagetable.can_write pt ~va:text.Pvboot.Layout.va);
  check_bool "heap writable" true (Xensim.Pagetable.can_write pt ~va:major.Pvboot.Layout.va);
  check_bool "heap not exec" false (Xensim.Pagetable.can_exec pt ~va:major.Pvboot.Layout.va);
  Xensim.Pagetable.seal pt

let test_layout_install_only () =
  let l = layout () in
  let pt = Xensim.Pagetable.create () in
  Pvboot.Layout.install_only l pt [ Pvboot.Layout.Major_heap ];
  let major = Pvboot.Layout.find l Pvboot.Layout.Major_heap in
  let text = Pvboot.Layout.find l Pvboot.Layout.Text in
  check_bool "major installed" true (Xensim.Pagetable.can_write pt ~va:major.Pvboot.Layout.va);
  check_bool "text skipped" false (Xensim.Pagetable.can_exec pt ~va:text.Pvboot.Layout.va)

(* ---- Extent allocator ---- *)

let sp = Pvboot.Layout.superpage_bytes

let test_extent_alloc_contiguous () =
  let a = Pvboot.Extent_allocator.create ~base:0 ~size:(16 * sp) in
  let e1 = Pvboot.Extent_allocator.alloc a ~bytes:(3 * sp) in
  let e2 = Pvboot.Extent_allocator.alloc a ~bytes:sp in
  check_int "first at base" 0 e1.Pvboot.Extent_allocator.base;
  check_int "contiguous" (3 * sp) e2.Pvboot.Extent_allocator.base;
  check_int "used" (4 * sp) (Pvboot.Extent_allocator.used_bytes a)

let test_extent_rounds_to_superpage () =
  let a = Pvboot.Extent_allocator.create ~base:0 ~size:(16 * sp) in
  let e = Pvboot.Extent_allocator.alloc a ~bytes:1 in
  check_int "rounded" sp e.Pvboot.Extent_allocator.len

let test_extent_free_coalesces () =
  let a = Pvboot.Extent_allocator.create ~base:0 ~size:(8 * sp) in
  let e1 = Pvboot.Extent_allocator.alloc a ~bytes:(2 * sp) in
  let e2 = Pvboot.Extent_allocator.alloc a ~bytes:(2 * sp) in
  let _e3 = Pvboot.Extent_allocator.alloc a ~bytes:(2 * sp) in
  Pvboot.Extent_allocator.free a e1;
  Pvboot.Extent_allocator.free a e2;
  (* Coalesced hole of 4 superpages should satisfy a 4-superpage request. *)
  let big = Pvboot.Extent_allocator.alloc a ~bytes:(4 * sp) in
  check_int "coalesced hole reused" 0 big.Pvboot.Extent_allocator.base

let test_extent_exhaustion () =
  let a = Pvboot.Extent_allocator.create ~base:0 ~size:(2 * sp) in
  ignore (Pvboot.Extent_allocator.alloc a ~bytes:(2 * sp));
  match Pvboot.Extent_allocator.alloc a ~bytes:sp with
  | exception Pvboot.Extent_allocator.Out_of_extents -> ()
  | _ -> Alcotest.fail "expected exhaustion"

let test_extent_alignment_enforced () =
  match Pvboot.Extent_allocator.create ~base:123 ~size:sp with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unaligned base rejected"

let prop_extent_accounting =
  qtest "used + free = size under random alloc/free"
    QCheck.(list_of_size (QCheck.Gen.int_range 1 40) (int_range 1 4))
    (fun sizes ->
      let a = Pvboot.Extent_allocator.create ~base:0 ~size:(256 * sp) in
      let live = ref [] in
      let ok = ref true in
      List.iteri
        (fun i n ->
          (try live := Pvboot.Extent_allocator.alloc a ~bytes:(n * sp) :: !live
           with Pvboot.Extent_allocator.Out_of_extents -> ());
          if i mod 3 = 2 then
            match !live with
            | e :: rest ->
              Pvboot.Extent_allocator.free a e;
              live := rest
            | [] -> ())
        sizes;
      let live_bytes = List.fold_left (fun acc e -> acc + e.Pvboot.Extent_allocator.len) 0 !live in
      if Pvboot.Extent_allocator.used_bytes a <> live_bytes then ok := false;
      if Pvboot.Extent_allocator.used_bytes a + Pvboot.Extent_allocator.free_bytes a <> 256 * sp
      then ok := false;
      !ok)

(* ---- Heap GC model (Figure 7a's mechanism) ---- *)

let fill_heap platform =
  let h = Pvboot.Heap.create ~platform () in
  let cost = ref 0 in
  (* allocate 64 MB of live 64-byte objects *)
  for _ = 1 to 1_000_000 do
    cost := !cost + Pvboot.Heap.alloc h ~bytes:64
  done;
  (h, !cost)

let test_heap_collections_happen () =
  let h, _ = fill_heap Platform.xen_extent in
  check_bool "minor collections ran" true (Pvboot.Heap.minor_collections h > 10);
  check_bool "major collections ran" true (Pvboot.Heap.major_collections h >= 1);
  check_bool "live tracked" true (Pvboot.Heap.live_bytes h > 50_000_000);
  check_bool "major heap grew" true (Pvboot.Heap.major_capacity_bytes h >= Pvboot.Heap.live_bytes h)

let test_heap_extent_cheaper_than_malloc () =
  let _, extent_cost = fill_heap Platform.xen_extent in
  let _, malloc_cost = fill_heap Platform.xen_malloc in
  check_bool
    (Printf.sprintf "extent (%d) < malloc (%d)" extent_cost malloc_cost)
    true (extent_cost < malloc_cost)

let test_heap_linux_pv_costlier_than_native () =
  let _, pv = fill_heap Platform.linux_pv in
  let _, native = fill_heap Platform.linux_native in
  check_bool "PV page-table updates cost more" true (pv > native)

let test_heap_transient_no_promotion () =
  let h = Pvboot.Heap.create ~platform:Platform.xen_extent () in
  for _ = 1 to 100_000 do
    ignore (Pvboot.Heap.alloc_transient h ~bytes:64)
  done;
  check_int "nothing promoted" 0 (Pvboot.Heap.live_bytes h);
  check_bool "minor collections still ran" true (Pvboot.Heap.minor_collections h > 0)

let test_heap_release () =
  let h = Pvboot.Heap.create ~platform:Platform.xen_extent () in
  for _ = 1 to 100_000 do
    ignore (Pvboot.Heap.alloc h ~bytes:64)
  done;
  let live = Pvboot.Heap.live_bytes h in
  Pvboot.Heap.release h ~bytes:live;
  check_int "released" 0 (Pvboot.Heap.live_bytes h)

(* ---- Domainpoll / Wallclock ---- *)

let test_domainpoll_event () =
  let w = create () in
  let ev = w.hv.Xensim.Hypervisor.evtchn in
  let back = Xensim.Evtchn.alloc_unbound ev ~owner:0 in
  let front = Xensim.Evtchn.bind_interdomain ev ~local:1 ~remote_port:back in
  let poll = Pvboot.Domainpoll.poll w.hv ~ports:[ back ] ~timeout_ns:(Engine.Sim.sec 10) in
  ignore (Engine.Sim.schedule w.sim ~delay:100 (fun () -> Xensim.Evtchn.notify ev front));
  (match run w poll with
  | Pvboot.Domainpoll.Event p -> check_int "right port" back p
  | Pvboot.Domainpoll.Timed_out -> Alcotest.fail "should not time out")

let test_domainpoll_timeout () =
  let w = create () in
  let ev = w.hv.Xensim.Hypervisor.evtchn in
  let back = Xensim.Evtchn.alloc_unbound ev ~owner:0 in
  (match run w (Pvboot.Domainpoll.poll w.hv ~ports:[ back ] ~timeout_ns:1000) with
  | Pvboot.Domainpoll.Timed_out -> ()
  | Pvboot.Domainpoll.Event _ -> Alcotest.fail "no event expected")

let test_wallclock () =
  let sim = Engine.Sim.create () in
  let wc = Pvboot.Wallclock.create sim ~epoch_s:1_000_000 in
  ignore (Engine.Sim.schedule sim ~delay:(Engine.Sim.sec 2) (fun () -> ()));
  Engine.Sim.run sim;
  check (Alcotest.float 1e-9) "time" 1_000_002.0 (Pvboot.Wallclock.time wc);
  check_int "uptime" (Engine.Sim.sec 2) (Pvboot.Wallclock.uptime_ns wc)

let () =
  Alcotest.run "pvboot"
    [
      ( "layout",
        [
          Alcotest.test_case "regions present" `Quick test_layout_regions_present;
          Alcotest.test_case "no overlap" `Quick test_layout_no_overlap;
          Alcotest.test_case "major heap sized to memory" `Quick test_layout_major_heap_sized_to_memory;
          Alcotest.test_case "minor heap one extent" `Quick test_layout_minor_heap_is_one_extent;
          Alcotest.test_case "install W^X" `Quick test_layout_install_wxorx;
          Alcotest.test_case "install_only" `Quick test_layout_install_only;
        ] );
      ( "extent_allocator",
        [
          Alcotest.test_case "contiguous allocation" `Quick test_extent_alloc_contiguous;
          Alcotest.test_case "rounds to superpage" `Quick test_extent_rounds_to_superpage;
          Alcotest.test_case "free coalesces" `Quick test_extent_free_coalesces;
          Alcotest.test_case "exhaustion" `Quick test_extent_exhaustion;
          Alcotest.test_case "alignment enforced" `Quick test_extent_alignment_enforced;
          prop_extent_accounting;
        ] );
      ( "heap",
        [
          Alcotest.test_case "collections happen" `Quick test_heap_collections_happen;
          Alcotest.test_case "extent cheaper than malloc" `Quick test_heap_extent_cheaper_than_malloc;
          Alcotest.test_case "pv costlier than native" `Quick test_heap_linux_pv_costlier_than_native;
          Alcotest.test_case "transient allocations die young" `Quick test_heap_transient_no_promotion;
          Alcotest.test_case "release" `Quick test_heap_release;
        ] );
      ( "domainpoll+wallclock",
        [
          Alcotest.test_case "event wins" `Quick test_domainpoll_event;
          Alcotest.test_case "timeout" `Quick test_domainpoll_timeout;
          Alcotest.test_case "wallclock" `Quick test_wallclock;
        ] );
    ]
