open Testlib

(* ---- Prng ---- *)

let test_prng_determinism () =
  let a = Engine.Prng.create ~seed:7 () in
  let b = Engine.Prng.create ~seed:7 () in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Engine.Prng.next_int64 a) (Engine.Prng.next_int64 b)
  done

let test_prng_seeds_differ () =
  let a = Engine.Prng.create ~seed:1 () in
  let b = Engine.Prng.create ~seed:2 () in
  let same = ref 0 in
  for _ = 1 to 50 do
    if Engine.Prng.next_int64 a = Engine.Prng.next_int64 b then incr same
  done;
  check_bool "streams differ" true (!same < 5)

let test_prng_int_bounds () =
  let p = Engine.Prng.create ~seed:3 () in
  for _ = 1 to 1000 do
    let v = Engine.Prng.int p 17 in
    check_bool "in range" true (v >= 0 && v < 17)
  done;
  Alcotest.check_raises "zero bound" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Engine.Prng.int p 0))

let test_prng_float_bounds () =
  let p = Engine.Prng.create ~seed:4 () in
  for _ = 1 to 1000 do
    let v = Engine.Prng.float p 2.5 in
    check_bool "in range" true (v >= 0.0 && v < 2.5)
  done

let test_prng_split_independent () =
  let p = Engine.Prng.create ~seed:5 () in
  let q = Engine.Prng.split p in
  check_bool "split differs from parent" true
    (Engine.Prng.next_int64 p <> Engine.Prng.next_int64 q)

(* The SplitMix64 stream is part of every seeded result: pin it, and
   that a draw allocates nothing. *)
let test_prng_stream_pinned () =
  let p = Engine.Prng.create ~seed:42 () in
  Alcotest.(check (list int64))
    "first 8 values for seed 42"
    [
      -4767286540954276203L;
      2949826092126892291L;
      5139283748462763858L;
      6349198060258255764L;
      701532786141963250L;
      -2430762948046562554L;
      4028864712777624925L;
      -3677692746721775708L;
    ]
    (List.init 8 (fun _ -> Engine.Prng.next_int64 p));
  let p = Engine.Prng.create ~seed:42 () in
  check_int "int" 706 (Engine.Prng.int p 1000);
  Alcotest.(check (float 0.)) "float scaled" 0.39977598219230026 (Engine.Prng.float p 2.5);
  Alcotest.(check (float 0.)) "float" 0x1.1d499d5c4c3e6p-2 (Engine.Prng.float p 1.0);
  let q = Engine.Prng.split p in
  Alcotest.(check int64) "split stream" 3676294358273406211L (Engine.Prng.next_int64 q);
  Alcotest.(check int64) "parent after split" 701532786141963250L (Engine.Prng.next_int64 p);
  check_bool "bool" false (Engine.Prng.bool p);
  check_int "int max_int" 2014432356388812462 (Engine.Prng.int p max_int);
  let w0 = Gc.minor_words () in
  let acc = ref 0 in
  for _ = 1 to 1000 do
    acc := !acc + Engine.Prng.int p 1000
  done;
  let words = Gc.minor_words () -. w0 in
  ignore (Sys.opaque_identity !acc);
  if words <> 0. then Alcotest.failf "1000 Prng.int draws allocated %.0f words" words

let test_prng_shuffle_permutation () =
  let p = Engine.Prng.create ~seed:6 () in
  let arr = Array.init 50 (fun i -> i) in
  Engine.Prng.shuffle p arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 (fun i -> i)) sorted

let test_prng_exponential_positive () =
  let p = Engine.Prng.create ~seed:8 () in
  let acc = ref 0.0 in
  for _ = 1 to 2000 do
    let v = Engine.Prng.exponential p ~mean:5.0 in
    check_bool "positive" true (v >= 0.0);
    acc := !acc +. v
  done;
  let mean = !acc /. 2000.0 in
  check_bool "mean near 5" true (mean > 4.0 && mean < 6.0)

(* ---- Stats ---- *)

let test_stats_percentile () =
  let xs = List.init 101 (fun i -> float_of_int i) in
  check (Alcotest.float 1e-9) "p0" 0.0 (Engine.Stats.percentile 0.0 xs);
  check (Alcotest.float 1e-9) "p50" 50.0 (Engine.Stats.percentile 50.0 xs);
  check (Alcotest.float 1e-9) "p100" 100.0 (Engine.Stats.percentile 100.0 xs);
  check (Alcotest.float 1e-9) "p25" 25.0 (Engine.Stats.percentile 25.0 xs)

let test_stats_percentile_errors () =
  Alcotest.check_raises "empty" (Invalid_argument "Stats.percentile: empty") (fun () ->
      ignore (Engine.Stats.percentile 50.0 []));
  Alcotest.check_raises "bad p" (Invalid_argument "Stats.percentile: p out of range") (fun () ->
      ignore (Engine.Stats.percentile 101.0 [ 1.0 ]));
  Alcotest.check_raises "negative p" (Invalid_argument "Stats.percentile: p out of range")
    (fun () -> ignore (Engine.Stats.percentile (-0.5) [ 1.0 ]))

let test_stats_percentile_edges () =
  (* A single sample is every percentile. *)
  check (Alcotest.float 1e-9) "single p0" 7.5 (Engine.Stats.percentile 0.0 [ 7.5 ]);
  check (Alcotest.float 1e-9) "single p50" 7.5 (Engine.Stats.percentile 50.0 [ 7.5 ]);
  check (Alcotest.float 1e-9) "single p100" 7.5 (Engine.Stats.percentile 100.0 [ 7.5 ]);
  (* p=0 / p=100 hit the extremes of an unsorted list, no interpolation. *)
  let xs = [ 9.0; 1.0; 4.0 ] in
  check (Alcotest.float 1e-9) "p0 is min" 1.0 (Engine.Stats.percentile 0.0 xs);
  check (Alcotest.float 1e-9) "p100 is max" 9.0 (Engine.Stats.percentile 100.0 xs)

(* ---- Eventq / Sim ---- *)

let test_sim_ordering () =
  let sim = Engine.Sim.create () in
  let log = ref [] in
  ignore (Engine.Sim.schedule sim ~delay:30 (fun () -> log := 3 :: !log));
  ignore (Engine.Sim.schedule sim ~delay:10 (fun () -> log := 1 :: !log));
  ignore (Engine.Sim.schedule sim ~delay:20 (fun () -> log := 2 :: !log));
  Engine.Sim.run sim;
  Alcotest.(check (list int)) "fires in time order" [ 1; 2; 3 ] (List.rev !log);
  check_int "clock at last event" 30 (Engine.Sim.now sim)

let test_sim_same_time_fifo () =
  let sim = Engine.Sim.create () in
  let log = ref [] in
  for i = 1 to 5 do
    ignore (Engine.Sim.schedule sim ~delay:10 (fun () -> log := i :: !log))
  done;
  Engine.Sim.run sim;
  Alcotest.(check (list int)) "FIFO within a timestamp" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_sim_cancel () =
  let sim = Engine.Sim.create () in
  let fired = ref false in
  let h = Engine.Sim.schedule sim ~delay:10 (fun () -> fired := true) in
  Engine.Sim.cancel h;
  Engine.Sim.run sim;
  check_bool "cancelled event does not fire" false !fired

let test_sim_until () =
  let sim = Engine.Sim.create () in
  let fired = ref 0 in
  ignore (Engine.Sim.schedule sim ~delay:10 (fun () -> incr fired));
  ignore (Engine.Sim.schedule sim ~delay:100 (fun () -> incr fired));
  Engine.Sim.run ~until:50 sim;
  check_int "only first fired" 1 !fired;
  check_int "clock advanced to limit" 50 (Engine.Sim.now sim);
  Engine.Sim.run sim;
  check_int "remainder fires later" 2 !fired

let test_sim_stop () =
  let sim = Engine.Sim.create () in
  let fired = ref 0 in
  ignore
    (Engine.Sim.schedule sim ~delay:1 (fun () ->
         incr fired;
         Engine.Sim.stop sim));
  ignore (Engine.Sim.schedule sim ~delay:2 (fun () -> incr fired));
  Engine.Sim.run sim;
  check_int "stopped after first" 1 !fired

let test_sim_nested_schedule () =
  let sim = Engine.Sim.create () in
  let log = ref [] in
  ignore
    (Engine.Sim.schedule sim ~delay:5 (fun () ->
         log := `A :: !log;
         ignore (Engine.Sim.schedule sim ~delay:5 (fun () -> log := `B :: !log))));
  Engine.Sim.run sim;
  check_int "both fired" 2 (List.length !log);
  check_int "clock" 10 (Engine.Sim.now sim)

let test_sim_negative_delay_clamped () =
  let sim = Engine.Sim.create () in
  ignore (Engine.Sim.schedule sim ~delay:20 (fun () ->
      ignore (Engine.Sim.schedule sim ~delay:(-10) (fun () -> ()))));
  Engine.Sim.run sim;
  check_int "clock never went backwards" 20 (Engine.Sim.now sim)

let test_time_units () =
  check_int "us" 1_000 (Engine.Sim.us 1);
  check_int "ms" 1_000_000 (Engine.Sim.ms 1);
  check_int "sec" 1_000_000_000 (Engine.Sim.sec 1);
  check (Alcotest.float 1e-12) "to_sec" 1.5 (Engine.Sim.to_sec 1_500_000_000);
  check (Alcotest.float 1e-12) "to_ms" 2.5 (Engine.Sim.to_ms 2_500_000)

let test_eventq_pending_count () =
  let sim = Engine.Sim.create () in
  let h1 = Engine.Sim.schedule sim ~delay:1 (fun () -> ()) in
  ignore (Engine.Sim.schedule sim ~delay:2 (fun () -> ()));
  check_int "two pending" 2 (Engine.Sim.pending sim);
  Engine.Sim.cancel h1;
  check_int "one pending after cancel" 1 (Engine.Sim.pending sim);
  Engine.Sim.run sim;
  check_int "none pending after run" 0 (Engine.Sim.pending sim)

(* Mass cancellation must delete the entries (so their closures are
   collectable) and shrink the backing array, while [length] stays exact
   throughout — the boot-storm reap cancels thousands of timers at once. *)
let test_eventq_compaction () =
  let q = Engine.Eventq.create () in
  let handles = Array.init 1000 (fun i -> Engine.Eventq.push q ~time:i (fun () -> ())) in
  check_int "all live" 1000 (Engine.Eventq.length q);
  check_bool "backing array holds them all" true (Engine.Eventq.capacity q >= 1000);
  Array.iteri (fun i h -> if i mod 100 <> 0 then Engine.Eventq.cancel h) handles;
  check_int "live after mass cancel" 10 (Engine.Eventq.length q);
  check_bool "backing array shrank" true (Engine.Eventq.capacity q < 1000);
  (* cancelling an already-deleted handle must not corrupt the counters *)
  Engine.Eventq.cancel handles.(1);
  Engine.Eventq.cancel handles.(1);
  check_int "re-cancel is a no-op" 10 (Engine.Eventq.length q);
  (* survivors still pop in time order with correct accounting *)
  let times = ref [] in
  while Engine.Eventq.length q > 0 do
    times := Engine.Eventq.min_time q :: !times;
    let (_ : unit -> unit) = Engine.Eventq.take q in
    ()
  done;
  check (Alcotest.list Alcotest.int) "survivors in order"
    [ 0; 100; 200; 300; 400; 500; 600; 700; 800; 900 ]
    (List.rev !times);
  check_int "empty after drain" 0 (Engine.Eventq.length q)

(* [length] is a counter, not a scan: interleaved push/cancel/pop across
   thousands of events keeps it exactly equal to the survivor count. *)
let test_eventq_length_exact () =
  let q = Engine.Eventq.create () in
  let expected = ref 0 in
  let live = Hashtbl.create 64 in
  let prng = Engine.Prng.create ~seed:11 () in
  for i = 0 to 4999 do
    match Engine.Prng.int prng 3 with
    | 0 | 1 ->
      let h = Engine.Eventq.push q ~time:(Engine.Prng.int prng 1_000_000) (fun () -> ()) in
      Hashtbl.replace live i h;
      incr expected
    | _ ->
      (match Hashtbl.fold (fun k h _ -> Some (k, h)) live None with
      | Some (k, h) ->
        Engine.Eventq.cancel h;
        Hashtbl.remove live k;
        decr expected
      | None -> ());
      if Engine.Eventq.length q <> !expected then
        Alcotest.failf "length %d <> expected %d after op %d" (Engine.Eventq.length q) !expected
          i
  done;
  check_int "final length exact" !expected (Engine.Eventq.length q);
  check_bool "backing array holds every live event" true
    (Engine.Eventq.capacity q >= Engine.Eventq.length q)

(* A loaded simulator's pending count breathes: bulk TCP swings between
   about 600 and 2500 events as windows open and RTO timers are
   cancelled. Once the arrays have grown to fit the peak, a swing of that
   size must not reallocate them in either direction. *)
let test_eventq_capacity_stable () =
  let q = Engine.Eventq.create () in
  let prng = Engine.Prng.create ~seed:13 () in
  let live = Array.make 2500 None and n = ref 0 in
  let cap = ref 0 and resizes = ref 0 in
  let observe cycle =
    let now = Engine.Eventq.capacity q in
    if cycle > 0 && now <> !cap then incr resizes;
    cap := now
  in
  for cycle = 0 to 49 do
    while !n < 2500 do
      live.(!n) <- Some (Engine.Eventq.push q ~time:(Engine.Prng.int prng 1_000_000) ignore);
      incr n;
      observe cycle
    done;
    while !n > 600 do
      let i = Engine.Prng.int prng !n in
      Option.iter Engine.Eventq.cancel live.(i);
      decr n;
      live.(i) <- live.(!n);
      observe cycle
    done
  done;
  check_int "live at the trough" 600 (Engine.Eventq.length q);
  check_int "resizes after the first cycle" 0 !resizes;
  check_bool "capacity fits the peak" true (!cap >= 2500)

(* The queue against a sorted-list model, over random interleavings of
   pushes (few distinct times, so ties are the common case), cancels of
   live, fired and already-cancelled handles, and takes. Every take must
   yield the model's least (time, insertion) entry, and [length] must
   equal the model's size after every operation. *)
type eventq_op = Push of int | Cancel of int | Take

let eventq_ops =
  let open QCheck in
  let op =
    Gen.frequency
      [
        (5, Gen.map (fun t -> Push t) (Gen.int_bound 7));
        (2, Gen.map (fun k -> Cancel k) Gen.nat);
        (3, Gen.return Take);
      ]
  in
  let print = function
    | Push t -> Printf.sprintf "push %d" t
    | Cancel k -> Printf.sprintf "cancel #%d" k
    | Take -> "take"
  in
  make ~print:(Print.list print) (Gen.list_size (Gen.int_bound 400) op)

let prop_eventq_model =
  qtest ~count:300 "eventq order equals sorted model" eventq_ops (fun ops ->
      let q = Engine.Eventq.create () in
      let handles = Hashtbl.create 64 and pushed = ref 0 in
      let model = ref [] (* live (time, id), ascending; ids count pushes *) in
      let fired = ref (-1) in
      List.for_all
        (fun op ->
          let ok =
            match op with
            | Push time ->
              let id = !pushed in
              incr pushed;
              Hashtbl.replace handles id (Engine.Eventq.push q ~time (fun () -> fired := id));
              model := List.merge compare !model [ (time, id) ];
              true
            | Cancel k ->
              if !pushed > 0 then begin
                let id = k mod !pushed in
                Engine.Eventq.cancel (Hashtbl.find handles id);
                model := List.filter (fun (_, i) -> i <> id) !model
              end;
              true
            | Take -> (
              match !model with
              | [] -> Engine.Eventq.length q = 0
              | (time, id) :: rest ->
                model := rest;
                let at = Engine.Eventq.min_time q in
                Engine.Eventq.take q ();
                at = time && !fired = id)
          in
          ok && Engine.Eventq.length q = List.length !model)
        ops)

(* Once the arrays have settled, a hold loop (take the earliest event,
   push a successor) allocates only the pushed handle: reading the
   earliest time, taking the event and [Sim.step] allocate nothing. *)
let test_eventq_hold_allocation () =
  let n = 10_000 and slack = 100. in
  let q = Engine.Eventq.create () in
  for i = 1 to 2500 do
    ignore (Engine.Eventq.push q ~time:i ignore)
  done;
  let handle_words = Obj.size (Obj.repr (Engine.Eventq.push q ~time:0 ignore)) + 1 in
  let before = Gc.minor_words () in
  for i = 1 to n do
    let time = Engine.Eventq.min_time q in
    let f = Engine.Eventq.take q in
    ignore (Sys.opaque_identity (Engine.Eventq.push q ~time:(time + 1 + (i land 1023)) f))
  done;
  let words = Gc.minor_words () -. before in
  check_bool
    (Printf.sprintf "%d push+take cycles allocate %.0f minor words, want %d (handles) + < %.0f" n
       words (n * handle_words) slack)
    true
    (words < float_of_int (n * handle_words) +. slack);
  let before = Gc.minor_words () in
  while Engine.Eventq.length q > 0 do
    ignore (Sys.opaque_identity (Engine.Eventq.min_time q));
    Engine.Eventq.take q ()
  done;
  let words = Gc.minor_words () -. before in
  check_bool (Printf.sprintf "draining takes allocate %.0f minor words, want < %.0f" words slack)
    true (words < slack);
  let sim = Engine.Sim.create () in
  let rec tick () = ignore (Engine.Sim.schedule sim ~delay:7 tick) in
  for d = 1 to 128 do
    ignore (Engine.Sim.schedule sim ~delay:d tick)
  done;
  let before = Gc.minor_words () in
  for _ = 1 to n do
    ignore (Engine.Sim.step sim)
  done;
  let words = Gc.minor_words () -. before in
  check_bool
    (Printf.sprintf "%d Sim.step calls allocate %.0f minor words, want %d (handles) + < %.0f" n
       words (n * handle_words) slack)
    true
    (words < float_of_int (n * handle_words) +. slack)

(* property: events always pop in nondecreasing time order *)
let prop_eventq_sorted =
  qtest "eventq pops sorted" QCheck.(list (int_bound 10_000)) (fun delays ->
      let sim = Engine.Sim.create () in
      let last = ref (-1) in
      let ok = ref true in
      List.iter
        (fun d ->
          ignore
            (Engine.Sim.schedule sim ~delay:d (fun () ->
                 if Engine.Sim.now sim < !last then ok := false;
                 last := Engine.Sim.now sim)))
        delays;
      Engine.Sim.run sim;
      !ok)

(* A lane (Sim.lane) keeps only its head in the heap, but must pop
   exactly as if every entry had gone through [Sim.at] when it was
   queued. A script of heap events, lane entries on three lanes (each
   lane's times never decrease; small gaps make ties with each other and
   with heap entries common) and steps runs twice: once with lanes, once
   with every entry through [Sim.at]. Tags and instants must fire in the
   same order, and [pending] must agree after every operation. *)
type lane_op = Heap of int | Lane of int * int | Step

let lane_ops =
  let open QCheck in
  let op =
    Gen.frequency
      [
        (3, Gen.map (fun d -> Heap d) (Gen.int_bound 6));
        (5, Gen.map2 (fun k d -> Lane (k, d)) (Gen.int_bound 2) (Gen.int_bound 2));
        (3, Gen.return Step);
      ]
  in
  let print = function
    | Heap d -> Printf.sprintf "heap +%d" d
    | Lane (k, d) -> Printf.sprintf "lane %d +%d" k d
    | Step -> "step"
  in
  make ~print:(Print.list print) (Gen.list_size (Gen.int_bound 300) op)

let run_lane_script ~lanes ops =
  let sim = Engine.Sim.create () in
  let ls = Array.init 3 (fun _ -> Engine.Sim.lane sim) in
  let tails = Array.make 3 0 and fired = ref [] and pendings = ref [] in
  let tag id () = fired := (id, Engine.Sim.now sim) :: !fired in
  List.iteri
    (fun id op ->
      (match op with
      | Heap d -> ignore (Engine.Sim.at sim ~time:(Engine.Sim.now sim + d) (tag id))
      | Lane (k, d) ->
        let time = max (Engine.Sim.now sim) tails.(k) + d in
        tails.(k) <- time;
        if lanes then Engine.Sim.lane_at ls.(k) ~time (tag id)
        else ignore (Engine.Sim.at sim ~time (tag id))
      | Step -> ignore (Engine.Sim.step sim));
      pendings := Engine.Sim.pending sim :: !pendings)
    ops;
  Engine.Sim.run sim;
  (List.rev !fired, List.rev !pendings, Engine.Sim.pending sim)

let prop_lane_model =
  qtest ~count:300 "lanes pop as Sim.at would" lane_ops (fun ops ->
      run_lane_script ~lanes:true ops = run_lane_script ~lanes:false ops)

let test_lane_rejects_earlier_time () =
  let sim = Engine.Sim.create () in
  let l = Engine.Sim.lane sim in
  Engine.Sim.lane_at l ~time:10 ignore;
  Engine.Sim.lane_at l ~time:10 ignore;
  Alcotest.check_raises "before the tail"
    (Invalid_argument "Sim.lane_at: time before the lane's last entry") (fun () ->
      Engine.Sim.lane_at l ~time:9 ignore);
  check_int "the rejected entry was not queued" 2 (Engine.Sim.lane_length l);
  check_int "pending unchanged by the rejection" 2 (Engine.Sim.pending sim)

let test_lane_pending () =
  let sim = Engine.Sim.create () in
  ignore (Engine.Sim.at sim ~time:1_000 ignore);
  let start = Engine.Sim.pending sim in
  let a = Engine.Sim.lane sim and b = Engine.Sim.lane sim in
  List.iter (fun time -> Engine.Sim.lane_at a ~time ignore) [ 1; 2; 2; 5 ];
  List.iter (fun time -> Engine.Sim.lane_at b ~time ignore) [ 3; 4 ];
  check_int "queued entries counted, heads and waiters alike" (start + 6) (Engine.Sim.pending sim);
  ignore (Engine.Sim.step sim);
  check_int "one fewer after a step" (start + 5) (Engine.Sim.pending sim);
  Engine.Sim.run ~until:999 sim;
  check_int "lanes drained" 0 (Engine.Sim.lane_length a + Engine.Sim.lane_length b);
  check_int "back to the start value" start (Engine.Sim.pending sim)

(* ---- Inttbl ----

   Engine.Inttbl against Stdlib.Hashtbl as the model: random replace,
   remove, find and reset sequences, with [length] and every model
   binding checked after each step (so a removal that broke a probe
   chain shows at once), and [fold] checked to visit each binding once
   at the end. Keys mix a dense small range (long probe chains while the
   table is small, growth as it fills), keys that differ only in their
   high bits, keys sharing their low byte as MACs do, negative keys and
   the extremes. *)
type inttbl_op = Replace of int * int | Remove of int | Find of int | Reset

let inttbl_ops =
  let open QCheck in
  let key =
    Gen.frequency
      [
        (6, Gen.int_bound 40);
        (2, Gen.map (fun i -> i lsl 50) (Gen.int_bound 12));
        (2, Gen.map (fun i -> (i lsl 40) lor 0x01) (Gen.int_bound 12));
        (2, Gen.map (fun i -> -i - 1) (Gen.int_bound 12));
        (1, Gen.oneofl [ min_int; max_int; 0; -1 ]);
      ]
  in
  let op =
    Gen.frequency
      [
        (6, Gen.map2 (fun k v -> Replace (k, v)) key Gen.small_nat);
        (3, Gen.map (fun k -> Remove k) key);
        (3, Gen.map (fun k -> Find k) key);
        (1, Gen.return Reset);
      ]
  in
  let print = function
    | Replace (k, v) -> Printf.sprintf "replace %d %d" k v
    | Remove k -> Printf.sprintf "remove %d" k
    | Find k -> Printf.sprintf "find %d" k
    | Reset -> "reset"
  in
  make ~print:(Print.list print) (Gen.list_size (Gen.int_bound 400) op)

let inttbl_agrees t model =
  Engine.Inttbl.length t = Hashtbl.length model
  && Hashtbl.fold (fun k v ok -> ok && Engine.Inttbl.find t k = v) model true

let prop_inttbl_model =
  qtest ~count:300 "inttbl agrees with Hashtbl" inttbl_ops (fun ops ->
      let t = Engine.Inttbl.create 1 and model = Hashtbl.create 8 in
      List.for_all
        (fun op ->
          (match op with
          | Replace (k, v) ->
            Engine.Inttbl.replace t k v;
            Hashtbl.replace model k v
          | Remove k ->
            Engine.Inttbl.remove t k;
            Hashtbl.remove model k
          | Find _ -> ()
          | Reset ->
            Engine.Inttbl.reset t;
            Hashtbl.reset model);
          let found =
            match op with
            | Find k ->
              Engine.Inttbl.find_opt t k = Hashtbl.find_opt model k
              && (match Engine.Inttbl.find t k with
                 | v -> Hashtbl.find_opt model k = Some v
                 | exception Not_found -> not (Hashtbl.mem model k))
            | _ -> true
          in
          found && inttbl_agrees t model)
        ops
      &&
      let bindings = Engine.Inttbl.fold (fun k v acc -> (k, v) :: acc) t [] in
      List.sort compare bindings = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) model []))

(* Growth to the boot storm's grant-table size and back: sequential keys
   (grant refs), then every other one removed from the middle of its
   chain, then [reset] empties the table for reuse. *)
let test_inttbl_grow_and_thin () =
  let n = 131_072 in
  let t = Engine.Inttbl.create 128 in
  for k = 0 to n - 1 do
    Engine.Inttbl.replace t (8 + k) (k * 3)
  done;
  check_int "all bound" n (Engine.Inttbl.length t);
  for k = 0 to n - 1 do
    if k land 1 = 0 then Engine.Inttbl.remove t (8 + k)
  done;
  check_int "half left" (n / 2) (Engine.Inttbl.length t);
  let ok = ref true in
  for k = 0 to n - 1 do
    let expect = if k land 1 = 0 then None else Some (k * 3) in
    if Engine.Inttbl.find_opt t (8 + k) <> expect then ok := false
  done;
  check_bool "survivors found, removed keys gone" true !ok;
  check_int "fold sums the survivors" (3 * (n / 2) * (n / 2))
    (Engine.Inttbl.fold (fun _ v acc -> acc + v) t 0);
  Engine.Inttbl.reset t;
  check_int "reset empties" 0 (Engine.Inttbl.length t);
  check_bool "reset forgets" true (Engine.Inttbl.find_opt t 9 = None);
  Engine.Inttbl.replace t 9 1;
  check_int "usable after reset" 1 (Engine.Inttbl.find t 9)

let () =
  Alcotest.run "engine"
    [
      ( "prng",
        [
          Alcotest.test_case "determinism" `Quick test_prng_determinism;
          Alcotest.test_case "seeds differ" `Quick test_prng_seeds_differ;
          Alcotest.test_case "int bounds" `Quick test_prng_int_bounds;
          Alcotest.test_case "float bounds" `Quick test_prng_float_bounds;
          Alcotest.test_case "split independent" `Quick test_prng_split_independent;
          Alcotest.test_case "stream pinned, int allocates nothing" `Quick test_prng_stream_pinned;
          Alcotest.test_case "shuffle permutes" `Quick test_prng_shuffle_permutation;
          Alcotest.test_case "exponential" `Quick test_prng_exponential_positive;
        ] );
      ( "stats",
        [
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "percentile errors" `Quick test_stats_percentile_errors;
          Alcotest.test_case "percentile edge cases" `Quick test_stats_percentile_edges;
        ] );
      ( "sim",
        [
          Alcotest.test_case "time ordering" `Quick test_sim_ordering;
          Alcotest.test_case "fifo at same time" `Quick test_sim_same_time_fifo;
          Alcotest.test_case "cancel" `Quick test_sim_cancel;
          Alcotest.test_case "run until" `Quick test_sim_until;
          Alcotest.test_case "stop" `Quick test_sim_stop;
          Alcotest.test_case "nested scheduling" `Quick test_sim_nested_schedule;
          Alcotest.test_case "negative delay clamped" `Quick test_sim_negative_delay_clamped;
          Alcotest.test_case "time units" `Quick test_time_units;
          Alcotest.test_case "pending count" `Quick test_eventq_pending_count;
          Alcotest.test_case "eventq compaction" `Quick test_eventq_compaction;
          Alcotest.test_case "eventq length exact" `Quick test_eventq_length_exact;
          Alcotest.test_case "eventq capacity stable" `Quick test_eventq_capacity_stable;
          Alcotest.test_case "eventq hold allocation" `Quick test_eventq_hold_allocation;
          prop_eventq_sorted;
          prop_eventq_model;
          prop_lane_model;
          Alcotest.test_case "lane_at before the tail raises" `Quick
            test_lane_rejects_earlier_time;
          Alcotest.test_case "pending counts lane entries" `Quick test_lane_pending;
        ] );
      ( "inttbl",
        [
          prop_inttbl_model;
          Alcotest.test_case "grow to 131072 keys, thin, reset" `Quick test_inttbl_grow_and_thin;
        ] );
    ]
