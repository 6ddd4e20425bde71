open Testlib
module P = Mthread.Promise

let disk_world ?(sectors = 8192) () =
  let sim = Engine.Sim.create () in
  (sim, Blockdev.Disk.create sim ~sectors ())

let test_disk_rw () =
  let sim, disk = disk_world () in
  let data = pattern 1024 in
  ignore (P.run sim (Blockdev.Disk.write disk ~sector:4 (bs data)));
  let back = P.run sim (Blockdev.Disk.read disk ~sector:4 ~count:2) in
  check_bool "roundtrip" true (Bytestruct.to_string back = data);
  check_int "reads counted" 1 (Blockdev.Disk.reads_issued disk);
  check_int "writes counted" 1 (Blockdev.Disk.writes_issued disk)

let test_disk_peek_no_timing () =
  let sim, disk = disk_world () in
  ignore (P.run sim (Blockdev.Disk.write disk ~sector:0 (bs (pattern 512))));
  let t = Engine.Sim.now sim in
  ignore (Blockdev.Disk.peek disk ~sector:0 ~count:1);
  check_int "peek advances no time" t (Engine.Sim.now sim)

let test_disk_out_of_range () =
  let _, disk = disk_world ~sectors:10 () in
  match Blockdev.Disk.read disk ~sector:9 ~count:2 with
  | exception Blockdev.Disk.Out_of_range _ -> ()
  | _ -> Alcotest.fail "expected Out_of_range"

let test_disk_service_time_scales () =
  let sim, disk = disk_world () in
  let t0 = Engine.Sim.now sim in
  ignore (P.run sim (Blockdev.Disk.read disk ~sector:0 ~count:1));
  let small = Engine.Sim.now sim - t0 in
  let t1 = Engine.Sim.now sim in
  ignore (P.run sim (Blockdev.Disk.read disk ~sector:0 ~count:4096));
  let large = Engine.Sim.now sim - t1 in
  check_bool "larger reads take longer" true (large > small);
  check_bool "access latency floor" true (small >= 55_000)

let test_disk_queueing () =
  let sim, disk = disk_world () in
  (* Two concurrent requests serialise through the device. *)
  let t0 = Engine.Sim.now sim in
  ignore
    (P.run sim
       (P.join
          [
            P.bind (Blockdev.Disk.read disk ~sector:0 ~count:1) (fun _ -> P.return ());
            P.bind (Blockdev.Disk.read disk ~sector:0 ~count:1) (fun _ -> P.return ());
          ]));
  let elapsed = Engine.Sim.now sim - t0 in
  check_bool "requests serialise" true (elapsed >= 2 * 55_000)

let test_disk_torn_write () =
  let sim, disk = disk_world () in
  ignore (P.run sim (Blockdev.Disk.write disk ~sector:0 (bs (String.make 2048 'A'))));
  Blockdev.Disk.inject_torn_write disk ~sectors:2;
  (match P.run sim (Blockdev.Disk.write disk ~sector:0 (bs (String.make 2048 'B'))) with
  | exception Blockdev.Disk.Torn_write -> ()
  | _ -> Alcotest.fail "expected Torn_write");
  let back = Blockdev.Disk.peek disk ~sector:0 ~count:4 in
  check_string "first two sectors new" (String.make 1024 'B') (Bytestruct.get_string back 0 1024);
  check_string "last two sectors old" (String.make 1024 'A') (Bytestruct.get_string back 1024 1024)

(* ---- Sparse contents ----

   Contents are kept in 64 KiB chunks, allocated on first write: 128
   sectors of 512 B, so sector 128 starts the second chunk. *)

let test_disk_rw_across_chunks () =
  let sim, disk = disk_world () in
  let data = pattern (8 * 512) in
  ignore (P.run sim (Blockdev.Disk.write disk ~sector:124 (bs data)));
  let back = P.run sim (Blockdev.Disk.read disk ~sector:124 ~count:8) in
  check_string "roundtrip across a chunk boundary" data (Bytestruct.to_string back);
  let wider = Blockdev.Disk.peek disk ~sector:120 ~count:16 in
  check_string "unwritten head" (String.make (4 * 512) '\000')
    (Bytestruct.get_string wider 0 (4 * 512));
  check_string "written middle" data (Bytestruct.get_string wider (4 * 512) (8 * 512));
  check_string "unwritten tail" (String.make (4 * 512) '\000')
    (Bytestruct.get_string wider (12 * 512) (4 * 512))

let test_disk_unwritten_reads_zero () =
  let sim, disk = disk_world () in
  ignore (P.run sim (Blockdev.Disk.write disk ~sector:0 (bs (pattern 512))));
  let back = P.run sim (Blockdev.Disk.read disk ~sector:1000 ~count:300) in
  check_string "never-written sectors are zero" (String.make (300 * 512) '\000')
    (Bytestruct.to_string back)

let test_disk_torn_write_across_chunks () =
  let sim, disk = disk_world () in
  ignore (P.run sim (Blockdev.Disk.write disk ~sector:124 (bs (String.make (8 * 512) 'A'))));
  Blockdev.Disk.inject_torn_write disk ~sectors:5;
  (match P.run sim (Blockdev.Disk.write disk ~sector:124 (bs (String.make (8 * 512) 'B'))) with
  | exception Blockdev.Disk.Torn_write -> ()
  | _ -> Alcotest.fail "expected Torn_write");
  let back = Blockdev.Disk.peek disk ~sector:124 ~count:8 in
  check_string "five sectors persisted, across the boundary" (String.make (5 * 512) 'B')
    (Bytestruct.get_string back 0 (5 * 512));
  check_string "last three sectors old" (String.make (3 * 512) 'A')
    (Bytestruct.get_string back (5 * 512) (3 * 512));
  (* Onto never-written sectors: the kept part ends at a chunk boundary,
     and the next chunk, never written, still reads as zeros. *)
  Blockdev.Disk.inject_torn_write disk ~sectors:2;
  (match P.run sim (Blockdev.Disk.write disk ~sector:254 (bs (String.make (4 * 512) 'C'))) with
  | exception Blockdev.Disk.Torn_write -> ()
  | _ -> Alcotest.fail "expected Torn_write");
  let back = Blockdev.Disk.peek disk ~sector:254 ~count:4 in
  check_string "two sectors persisted" (String.make (2 * 512) 'C')
    (Bytestruct.get_string back 0 1024);
  check_string "rest unwritten" (String.make (2 * 512) '\000')
    (Bytestruct.get_string back 1024 1024)

let test_disk_create_is_lazy () =
  let major_words () =
    let _, _, major = Gc.counters () in
    major
  in
  let before = major_words () in
  let sim = Engine.Sim.create () in
  let disk = Blockdev.Disk.create sim ~sectors:(1 lsl 19) () in
  let grown = major_words () -. before in
  check_int "256 MiB device" (1 lsl 19) (Blockdev.Disk.sectors disk);
  check_bool
    (Printf.sprintf "creating a 256 MiB disk allocates < 1M major words (%.0f)" grown)
    true (grown < 1e6)

(* ---- Buffer cache ---- *)

let test_cache_hits () =
  let sim, disk = disk_world () in
  let bc = Blockdev.Buffer_cache.create sim disk in
  ignore (P.run sim (Blockdev.Buffer_cache.read bc ~sector:0 ~count:8));
  check_bool "first read misses" true (Blockdev.Buffer_cache.misses bc > 0);
  let reads_before = Blockdev.Disk.reads_issued disk in
  ignore (P.run sim (Blockdev.Buffer_cache.read bc ~sector:0 ~count:8));
  check_int "second read hits without device I/O" reads_before (Blockdev.Disk.reads_issued disk);
  check_bool "hits counted" true (Blockdev.Buffer_cache.hits bc > 0)

let test_cache_correctness () =
  let sim, disk = disk_world () in
  let bc = Blockdev.Buffer_cache.create sim disk in
  let data = pattern 4096 in
  ignore (P.run sim (Blockdev.Buffer_cache.write bc ~sector:8 (bs data)));
  let back = P.run sim (Blockdev.Buffer_cache.read bc ~sector:8 ~count:8) in
  check_bool "write-through read-back" true (Bytestruct.to_string back = data)

let test_cache_write_invalidates () =
  let sim, disk = disk_world () in
  let bc = Blockdev.Buffer_cache.create sim disk in
  ignore (P.run sim (Blockdev.Buffer_cache.read bc ~sector:0 ~count:8));
  ignore (P.run sim (Blockdev.Buffer_cache.write bc ~sector:0 (bs (pattern 4096))));
  let back = P.run sim (Blockdev.Buffer_cache.read bc ~sector:0 ~count:8) in
  check_bool "sees fresh data" true (Bytestruct.to_string back = pattern 4096)

let test_cache_eviction_bounded () =
  let sim, disk = disk_world ~sectors:65536 () in
  let bc = Blockdev.Buffer_cache.create sim ~cache_pages:16 disk in
  for i = 0 to 63 do
    ignore (P.run sim (Blockdev.Buffer_cache.read bc ~sector:(i * 8) ~count:8))
  done;
  check_bool "resident bounded" true (Blockdev.Buffer_cache.resident_pages bc <= 16)

(* The LRU evicts exactly what a scan for the oldest stamp evicts. The
   model is that scan: every touch and insert stamps a page from one
   clock, and a full cache evicts the resident page with the smallest
   stamp. Over random reads (1-3 pages) and invalidating writes, the
   cache and the model agree after every operation on the hit and miss
   counts and on which pages are resident. *)
module Scan_model = struct
  type t = { cap : int; stamps : (int, int) Hashtbl.t; mutable clock : int }

  let create cap = { cap; stamps = Hashtbl.create 16; clock = 0 }

  let touch m p =
    m.clock <- m.clock + 1;
    if Hashtbl.mem m.stamps p then begin
      Hashtbl.replace m.stamps p m.clock;
      true
    end
    else false

  let insert m p =
    if not (Hashtbl.mem m.stamps p) then begin
      if Hashtbl.length m.stamps >= m.cap then begin
        let victim, _ =
          Hashtbl.fold
            (fun q s (v, oldest) -> if s < oldest then (q, s) else (v, oldest))
            m.stamps (-1, max_int)
        in
        Hashtbl.remove m.stamps victim
      end;
      m.clock <- m.clock + 1;
      Hashtbl.replace m.stamps p m.clock
    end
end

let prop_cache_lru_matches_scan =
  let pages = 24 in
  let op =
    QCheck.Gen.(
      frequency
        [
          (5, map2 (fun p n -> `Read (p, n)) (int_bound (pages - 3)) (int_range 1 3));
          (1, map (fun p -> `Write p) (int_bound (pages - 1)));
        ])
  in
  let print = function
    | `Read (p, n) -> Printf.sprintf "read %d+%d" p n
    | `Write p -> Printf.sprintf "write %d" p
  in
  qtest ~count:200 "LRU evicts what the oldest-stamp scan evicts"
    QCheck.(
      pair (int_range 1 8) (list_of_size (QCheck.Gen.int_range 1 150) (make ~print:print op)))
    (fun (cap, ops) ->
      let sim, disk = disk_world ~sectors:(pages * 8) () in
      let bc = Blockdev.Buffer_cache.create sim ~cache_pages:cap disk in
      let m = Scan_model.create cap in
      let hits = ref 0 and misses = ref 0 in
      List.for_all
        (fun op ->
          (match op with
          | `Read (p, n) ->
            ignore (P.run sim (Blockdev.Buffer_cache.read bc ~sector:(p * 8) ~count:(n * 8)));
            let missing = List.filter (fun q -> not (Scan_model.touch m q)) (List.init n (( + ) p)) in
            hits := !hits + n - List.length missing;
            misses := !misses + List.length missing;
            List.iter (Scan_model.insert m) missing
          | `Write p ->
            ignore (P.run sim (Blockdev.Buffer_cache.write bc ~sector:(p * 8) (bs (pattern 4096))));
            Hashtbl.remove m.Scan_model.stamps p);
          Blockdev.Buffer_cache.hits bc = !hits
          && Blockdev.Buffer_cache.misses bc = !misses
          && Blockdev.Buffer_cache.resident_pages bc = Hashtbl.length m.Scan_model.stamps
          && List.for_all
               (fun q -> Blockdev.Buffer_cache.resident bc ~page:q = Hashtbl.mem m.Scan_model.stamps q)
               (List.init pages Fun.id))
        ops)

let test_buffered_plateau_vs_direct () =
  (* Figure 9's shape: at large block sizes, direct I/O far exceeds the
     buffered path, which plateaus at the cache-copy bandwidth. *)
  let sim, disk = disk_world ~sectors:(1 lsl 21) () in
  let bc = Blockdev.Buffer_cache.create sim disk in
  let prng = Engine.Prng.create ~seed:1 () in
  let block_sectors = 2048 (* 1 MiB *) in
  let spread = (1 lsl 21) / block_sectors in
  let measure f =
    let t0 = Engine.Sim.now sim in
    let bytes = ref 0 in
    for _ = 1 to 32 do
      let sector = Engine.Prng.int prng spread * block_sectors in
      let data = P.run sim (f ~sector ~count:block_sectors) in
      bytes := !bytes + Bytestruct.length data
    done;
    float_of_int !bytes /. Engine.Sim.to_sec (Engine.Sim.now sim - t0)
  in
  let direct = measure (fun ~sector ~count -> Blockdev.Disk.read disk ~sector ~count) in
  let buffered = measure (fun ~sector ~count -> Blockdev.Buffer_cache.read bc ~sector ~count) in
  check_bool
    (Printf.sprintf "direct (%.0f MB/s) well above buffered (%.0f MB/s)" (direct /. 1e6)
       (buffered /. 1e6))
    true
    (direct > 3.0 *. buffered);
  check_bool "buffered plateaus near copy bandwidth (~320 MB/s)" true
    (buffered < 400e6 && buffered > 150e6)

let () =
  Alcotest.run "blockdev"
    [
      ( "disk",
        [
          Alcotest.test_case "read/write" `Quick test_disk_rw;
          Alcotest.test_case "peek bypasses timing" `Quick test_disk_peek_no_timing;
          Alcotest.test_case "out of range" `Quick test_disk_out_of_range;
          Alcotest.test_case "service time scales" `Quick test_disk_service_time_scales;
          Alcotest.test_case "requests queue" `Quick test_disk_queueing;
          Alcotest.test_case "torn write" `Quick test_disk_torn_write;
          Alcotest.test_case "read/write across chunks" `Quick test_disk_rw_across_chunks;
          Alcotest.test_case "unwritten sectors read zero" `Quick test_disk_unwritten_reads_zero;
          Alcotest.test_case "torn write across chunks" `Quick test_disk_torn_write_across_chunks;
          Alcotest.test_case "create allocates nothing up front" `Quick test_disk_create_is_lazy;
        ] );
      ( "buffer_cache",
        [
          Alcotest.test_case "hits avoid device" `Quick test_cache_hits;
          Alcotest.test_case "correctness" `Quick test_cache_correctness;
          Alcotest.test_case "write invalidates" `Quick test_cache_write_invalidates;
          Alcotest.test_case "eviction bounded" `Quick test_cache_eviction_bounded;
          prop_cache_lru_matches_scan;
          Alcotest.test_case "buffered plateau vs direct" `Quick test_buffered_plateau_vs_direct;
        ] );
    ]
