open Testlib

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

(* The minor heap is one 2 MiB superpage extent, as in [Layout]: the first
   collection comes with the first allocation that would overflow it. *)
let minor_heap_bytes = 2 * 1024 * 1024

let test_heap_minor_fits_extent () =
  let h = Pvboot.Heap.create ~platform:Platform.xen_extent () in
  for _ = 1 to minor_heap_bytes / 64 do
    ignore (Pvboot.Heap.alloc h ~bytes:64)
  done;
  check_int "no collection yet" 0 (Pvboot.Heap.minor_collections h);
  ignore (Pvboot.Heap.alloc h ~bytes:64);
  check_int "one collection" 1 (Pvboot.Heap.minor_collections h)

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
      ( "heap",
        [
          Alcotest.test_case "collections happen" `Quick test_heap_collections_happen;
          Alcotest.test_case "extent cheaper than malloc" `Quick test_heap_extent_cheaper_than_malloc;
          Alcotest.test_case "pv costlier than native" `Quick test_heap_linux_pv_costlier_than_native;
        ] );
      (* Alcotest sizes its suite column to the longest suite name and cuts
         test names at the terminal width; this name's 20 characters keep
         that column, and so every printed test name, as it has been. *)
      ( "heap minor threshold",
        [ Alcotest.test_case "collects past one extent" `Quick test_heap_minor_fits_extent ] );
    ]
