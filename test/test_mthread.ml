open Testlib
module P = Mthread.Promise
open P.Infix

let sim () = Engine.Sim.create ()

let test_return_bind () =
  let s = sim () in
  let p = P.return 20 >>= fun x -> P.return (x + 1) in
  check_int "bind on resolved" 21 (P.run s p)

let test_map () =
  let s = sim () in
  check_string "map" "7" (P.run s (P.return 7 >|= string_of_int))

let test_wait_wakeup () =
  let s = sim () in
  let p, u = P.wait () in
  check_bool "pending" true (P.state p = `Pending);
  ignore (Engine.Sim.schedule s ~delay:5 (fun () -> P.wakeup u 42));
  check_int "resolves" 42 (P.run s p)

let test_double_wakeup_rejected () =
  let _p, u = P.wait () in
  P.wakeup u 1;
  match P.wakeup u 2 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "double wakeup should fail"

let test_wakeup_exn () =
  let s = sim () in
  let p, u = P.wait () in
  P.wakeup_exn u Not_found;
  match P.run s p with
  | exception Not_found -> ()
  | _ -> Alcotest.fail "expected Not_found"

let test_bind_propagates_failure () =
  let s = sim () in
  let p = P.fail Exit >>= fun () -> P.return 1 in
  match P.run s p with exception Exit -> () | _ -> Alcotest.fail "expected Exit"

let test_bind_callback_raises () =
  let s = sim () in
  let p = P.return 1 >>= fun _ -> raise Not_found in
  match P.run s p with exception Not_found -> () | _ -> Alcotest.fail "expected"

let test_catch () =
  let s = sim () in
  let p = P.catch (fun () -> P.fail Exit) (fun _ -> P.return "rescued") in
  check_string "catch" "rescued" (P.run s p);
  let q = P.catch (fun () -> P.return "fine") (fun _ -> P.return "no") in
  check_string "no-op catch" "fine" (P.run s q)

let test_catch_async_failure () =
  let s = sim () in
  let p, u = P.wait () in
  let guarded = P.catch (fun () -> p) (fun _ -> P.return (-1)) in
  ignore (Engine.Sim.schedule s ~delay:3 (fun () -> P.wakeup_exn u Exit));
  check_int "async failure caught" (-1) (P.run s guarded)

let test_try_bind () =
  let s = sim () in
  let ok = P.try_bind (fun () -> P.return 1) (fun v -> P.return (v + 1)) (fun _ -> P.return 0) in
  check_int "success path" 2 (P.run s ok);
  let err = P.try_bind (fun () -> P.fail Exit) (fun _ -> P.return 0) (fun _ -> P.return 9) in
  check_int "error path" 9 (P.run s err)

let test_finalize () =
  let s = sim () in
  let cleaned = ref 0 in
  let fin () = incr cleaned; P.return () in
  check_int "success value kept" 5 (P.run s (P.finalize (fun () -> P.return 5) fin));
  (match P.run s (P.finalize (fun () -> P.fail Exit) fin) with
  | exception Exit -> ()
  | _ -> Alcotest.fail "failure must propagate");
  check_int "finalizer ran both ways" 2 !cleaned

let test_sleep_ordering () =
  let s = sim () in
  let log = ref [] in
  P.async (fun () -> P.sleep s 30 >|= fun () -> log := 3 :: !log);
  P.async (fun () -> P.sleep s 10 >|= fun () -> log := 1 :: !log);
  P.async (fun () -> P.sleep s 20 >|= fun () -> log := 2 :: !log);
  Engine.Sim.run s;
  Alcotest.(check (list int)) "wakeup order" [ 1; 2; 3 ] (List.rev !log)

let test_yield () =
  let s = sim () in
  let flag = ref false in
  let p = P.yield s >|= fun () -> !flag in
  flag := true;
  check_bool "yield defers" true (P.run s p)

let test_join () =
  let s = sim () in
  let done_count = ref 0 in
  let thread d = P.sleep s d >|= fun () -> incr done_count in
  ignore (P.run s (P.join [ thread 5; thread 1; thread 3 ]));
  check_int "all finished" 3 !done_count

let test_join_empty () =
  let s = sim () in
  ignore (P.run s (P.join []))

let test_join_collects_failure () =
  let s = sim () in
  let p = P.join [ P.sleep s 1; (P.sleep s 2 >>= fun () -> P.fail Exit) ] in
  match P.run s p with exception Exit -> () | _ -> Alcotest.fail "join should fail"

let test_all_order () =
  let s = sim () in
  let slow v d = P.sleep s d >|= fun () -> v in
  let r = P.run s (P.all [ slow "a" 30; slow "b" 10; slow "c" 20 ]) in
  Alcotest.(check (list string)) "results in argument order" [ "a"; "b"; "c" ] r

let test_both () =
  let s = sim () in
  let a = P.sleep s 5 >|= fun () -> 1 in
  let b = P.sleep s 2 >|= fun () -> "x" in
  let x, y = P.run s (P.both a b) in
  check_int "fst" 1 x;
  check_string "snd" "x" y

let test_choose_first () =
  let s = sim () in
  let slow v d = P.sleep s d >|= fun () -> v in
  check_string "fastest wins" "fast" (P.run s (P.choose [ slow "slow" 50; slow "fast" 5 ]))

let test_pick_cancels_losers () =
  let s = sim () in
  let loser_ran = ref false in
  let loser = P.sleep s 50 >|= fun () -> loser_ran := true; "slow" in
  let winner = P.sleep s 5 >|= fun () -> "fast" in
  check_string "winner" "fast" (P.run s (P.pick [ loser; winner ]));
  Engine.Sim.run s;
  check_bool "loser cancelled" false !loser_ran;
  check_bool "loser failed with Canceled" true (P.state loser = `Failed P.Canceled)

let test_cancel_sleep_releases_timer () =
  let s = sim () in
  let p = P.sleep s 1000 in
  P.cancel p;
  check_bool "failed with Canceled" true (P.state p = `Failed P.Canceled);
  check_int "no pending events" 0 (Engine.Sim.pending s)

let test_cancel_propagates_through_bind () =
  let s = sim () in
  let src = P.sleep s 1000 in
  let derived = src >>= fun () -> P.return 1 in
  P.cancel derived;
  check_bool "source cancelled" true (P.state src = `Failed P.Canceled);
  check_int "timer descheduled" 0 (Engine.Sim.pending s)

let test_on_cancel_hook () =
  let hook = ref false in
  let p, _u = P.wait () in
  P.on_cancel p (fun () -> hook := true);
  P.cancel p;
  check_bool "hook ran" true !hook

let test_with_timeout_fires () =
  let s = sim () in
  let p = P.with_timeout s 10 (fun () -> P.sleep s 100 >|= fun () -> "late") in
  match P.run s p with
  | exception P.Timeout -> ()
  | _ -> Alcotest.fail "expected Timeout"

let test_with_timeout_passes () =
  let s = sim () in
  let p = P.with_timeout s 100 (fun () -> P.sleep s 10 >|= fun () -> "ok") in
  check_string "in time" "ok" (P.run s p);
  Engine.Sim.run s;
  check_int "timeout timer descheduled" 0 (Engine.Sim.pending s)

let test_async_exception_hook () =
  let s = sim () in
  let caught = ref None in
  P.set_async_exception_hook (fun e -> caught := Some e);
  P.async (fun () -> P.sleep s 1 >>= fun () -> P.fail Exit);
  Engine.Sim.run s;
  P.set_async_exception_hook raise;
  check_bool "hook saw the exception" true (!caught = Some Exit)

let test_run_deadlock_detection () =
  let s = sim () in
  let p, _u = P.wait () in
  match P.run s (p : unit P.t) with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected deadlock failure"

let test_counters () =
  P.reset_counters ();
  let s = sim () in
  ignore (P.run s (P.return 1 >>= fun x -> P.return x));
  check_bool "created counted" true (P.created_count () >= 2);
  check_bool "resolved counted" true (P.resolved_count () >= 2)

(* ---- Mstream ---- *)

let test_mstream_push_next () =
  let s = sim () in
  let st = Mthread.Mstream.create () in
  Mthread.Mstream.push st 1;
  Mthread.Mstream.push st 2;
  check_bool "next" true (P.run s (Mthread.Mstream.next st) = Some 1);
  check_bool "next 2" true (P.run s (Mthread.Mstream.next st) = Some 2)

let test_mstream_blocking_reader () =
  let s = sim () in
  let st = Mthread.Mstream.create () in
  let r = Mthread.Mstream.next st in
  ignore (Engine.Sim.schedule s ~delay:2 (fun () -> Mthread.Mstream.push st 42));
  check_bool "wakes reader" true (P.run s r = Some 42)

let test_mstream_close () =
  let s = sim () in
  let st = Mthread.Mstream.create () in
  Mthread.Mstream.push st 1;
  Mthread.Mstream.close st;
  check_bool "drains buffered" true (P.run s (Mthread.Mstream.next st) = Some 1);
  check_bool "then eof" true (P.run s (Mthread.Mstream.next st) = None);
  match Mthread.Mstream.push st 2 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "push after close must fail"

let test_mstream_close_wakes_blocked () =
  let s = sim () in
  let st = Mthread.Mstream.create () in
  let r = Mthread.Mstream.next st in
  ignore (Engine.Sim.schedule s ~delay:1 (fun () -> Mthread.Mstream.close st));
  check_bool "eof to blocked reader" true (P.run s r = None)

(* ---- Msem ---- *)

let test_msem_limits_concurrency () =
  let s = sim () in
  let sem = Mthread.Msem.create 2 in
  let active = ref 0 and peak = ref 0 in
  let worker () =
    Mthread.Msem.with_permit sem (fun () ->
        incr active;
        if !active > !peak then peak := !active;
        P.sleep s 10 >|= fun () -> decr active)
  in
  ignore (P.run s (P.join (List.init 6 (fun _ -> worker ()))));
  check_int "peak bounded by permits" 2 !peak

let test_msem_release_on_failure () =
  let s = sim () in
  let sem = Mthread.Msem.create 1 in
  (try ignore (P.run s (Mthread.Msem.with_permit sem (fun () -> P.fail Exit))) with Exit -> ());
  check_bool "permit returned" true (P.state (Mthread.Msem.acquire sem) = `Resolved ())

(* ---- Mcond ---- *)

let test_mcond_broadcast () =
  let s = sim () in
  let c = Mthread.Mcond.create () in
  let w1 = Mthread.Mcond.wait c and w2 = Mthread.Mcond.wait c in
  Mthread.Mcond.broadcast c 9;
  check_int "broadcast w1" 9 (P.run s w1);
  check_int "broadcast w2" 9 (P.run s w2);
  let w3 = Mthread.Mcond.wait c in
  check_bool "a later waiter waits for the next broadcast" true (P.state w3 = `Pending);
  Mthread.Mcond.broadcast c 1;
  check_int "next broadcast" 1 (P.run s w3)

(* ---- Recursive loops and proxy promises ---- *)

(* A reader over [wait]/[wakeup] promises: [read ()] blocks until the next
   [feed], as a stream read does. *)
let reader () =
  let next = ref None in
  let read () =
    let p, u = P.wait () in
    next := Some (p, u);
    p
  in
  let feed v = match !next with Some (_, u) -> P.wakeup u v | None -> assert false in
  let pending () = match !next with Some (p, _) -> p | None -> assert false in
  (read, feed, pending)

let test_loop_constant_space () =
  let read, feed, _ = reader () in
  let rec loop n = read () >>= fun more -> if more then loop (n + 1) else P.return n in
  (* the caller holds the loop's promise and never reads it while it runs *)
  let outer = loop 0 in
  let live_after iterations =
    for _ = 1 to iterations do
      feed true
    done;
    Gc.full_major ();
    (Gc.stat ()).live_words
  in
  let early = live_after 1_000 in
  let late = live_after 99_000 in
  check_bool
    (Printf.sprintf "live words flat: %d after 10^3 reads, %d after 10^5" early late)
    true
    (late - early < 1_000);
  feed false;
  check_bool "loop result" true (P.state outer = `Resolved 100_000)

let test_loop_cancel () =
  let read, feed, pending = reader () in
  let hooks = ref 0 in
  let read () =
    let p = read () in
    P.on_cancel p (fun () -> incr hooks);
    p
  in
  let rec loop () = read () >>= fun () -> loop () in
  let outer = loop () in
  for _ = 1 to 100 do
    feed ()
  done;
  let current = pending () in
  P.cancel outer;
  P.cancel outer;
  check_int "pending read cancelled exactly once" 1 !hooks;
  check_bool "pending read failed" true (P.state current = `Failed P.Canceled);
  check_bool "loop failed" true (P.state outer = `Failed P.Canceled)

let test_merge_waiter_order () =
  let log = ref [] in
  let note name _ = log := name :: !log in
  let t, tu = P.wait () in
  let inner, iu = P.wait () in
  P.on_resolve inner (note "inner-before");
  let outer = t >>= fun () -> inner in
  P.on_resolve outer (note "outer-before");
  P.wakeup tu ();
  (* [inner] is pending, so bind has now joined [outer] to it *)
  P.on_resolve outer (note "outer-after");
  P.on_resolve inner (note "inner-after");
  P.wakeup iu 7;
  check_bool "order" true
    (List.rev !log = [ "inner-before"; "outer-before"; "outer-after"; "inner-after" ]);
  check_bool "outer value" true (P.state outer = `Resolved 7)

let test_handlers_return_pending () =
  let t, tu = P.wait () and h, hu = P.wait () in
  let c = P.catch (fun () -> t) (fun _ -> h) in
  P.wakeup_exn tu Exit;
  check_bool "catch waits for handler" true (P.state c = `Pending);
  P.wakeup hu 5;
  check_bool "catch resolved by handler" true (P.state c = `Resolved 5);
  let t, tu = P.wait () and h, hu = P.wait () in
  let c = P.catch (fun () -> t) (fun _ -> h) in
  P.wakeup_exn tu Exit;
  P.wakeup_exn hu Not_found;
  check_bool "catch fails with handler's failure" true (P.state c = `Failed Not_found);
  let t, tu = P.wait () and k, ku = P.wait () in
  let b = P.try_bind (fun () -> t) (fun v -> k >|= ( + ) v) (fun _ -> P.return 0) in
  P.wakeup tu 1;
  check_bool "try_bind waits for on_ok" true (P.state b = `Pending);
  P.wakeup ku 2;
  check_bool "try_bind ok path" true (P.state b = `Resolved 3);
  let t, tu = P.wait () and k, ku = P.wait () in
  let b = P.try_bind (fun () -> t) (fun _ -> P.return 0) (fun _ -> k) in
  P.wakeup_exn tu Exit;
  check_bool "try_bind waits for on_err" true (P.state b = `Pending);
  P.wakeup ku 9;
  check_bool "try_bind error path" true (P.state b = `Resolved 9);
  let finalized outcome =
    let t, tu = P.wait () and cl, clu = P.wait () in
    let cleaned = ref false in
    let f = P.finalize (fun () -> t) (fun () -> cl >|= fun () -> cleaned := true) in
    (match outcome with Ok v -> P.wakeup tu v | Error e -> P.wakeup_exn tu e);
    check_bool "finalize waits for cleanup" true (P.state f = `Pending && not !cleaned);
    P.wakeup clu ();
    check_bool "cleanup ran" true !cleaned;
    P.state f
  in
  check_bool "finalize success" true (finalized (Ok 4) = `Resolved 4);
  check_bool "finalize failure" true (finalized (Error Exit) = `Failed Exit)

let test_proxied_state () =
  let t, tu = P.wait () and inner, iu = P.wait () in
  let outer = t >>= fun () -> inner in
  P.wakeup tu ();
  check_bool "inner pending" true (P.state inner = `Pending);
  check_bool "inner wakener pending" true (P.wakener_pending iu);
  check_bool "outer pending" true (P.state outer = `Pending);
  P.wakeup iu 3;
  check_bool "inner resolved" true (P.state inner = `Resolved 3);
  check_bool "outer resolved" true (P.state outer = `Resolved 3);
  check_bool "inner wakener spent" false (P.wakener_pending iu);
  let hooks = ref [] in
  let t, tu = P.wait () and inner, iu = P.wait () in
  P.on_cancel inner (fun () -> hooks := "inner" :: !hooks);
  let outer = t >>= fun () -> inner in
  P.on_cancel outer (fun () -> hooks := "outer" :: !hooks);
  P.wakeup tu ();
  P.cancel outer;
  check_bool "cancel hooks: outer's, then inner's" true (List.rev !hooks = [ "outer"; "inner" ]);
  check_bool "inner cancelled" true (P.state inner = `Failed P.Canceled);
  check_bool "cancelled wakener spent" false (P.wakener_pending iu);
  P.wakeup iu 1;
  check_bool "late wakeup ignored" true (P.state outer = `Failed P.Canceled);
  (* a chain: [inner] joins [mid], then [mid] joins [top] *)
  let t1, tu1 = P.wait () and t2, tu2 = P.wait () and inner, iu = P.wait () in
  let mid = t1 >>= fun () -> inner in
  let top = t2 >>= fun () -> mid in
  P.wakeup tu1 ();
  P.wakeup tu2 ();
  check_bool "chain pending" true (P.state top = `Pending && P.wakener_pending iu);
  P.wakeup iu 4;
  check_bool "chain resolved" true
    (List.for_all (fun p -> P.state p = `Resolved 4) [ inner; mid; top ])

let () =
  Alcotest.run "mthread"
    [
      ( "promise",
        [
          Alcotest.test_case "return/bind" `Quick test_return_bind;
          Alcotest.test_case "map" `Quick test_map;
          Alcotest.test_case "wait/wakeup" `Quick test_wait_wakeup;
          Alcotest.test_case "double wakeup rejected" `Quick test_double_wakeup_rejected;
          Alcotest.test_case "wakeup_exn" `Quick test_wakeup_exn;
          Alcotest.test_case "bind propagates failure" `Quick test_bind_propagates_failure;
          Alcotest.test_case "bind callback raises" `Quick test_bind_callback_raises;
          Alcotest.test_case "catch" `Quick test_catch;
          Alcotest.test_case "catch async failure" `Quick test_catch_async_failure;
          Alcotest.test_case "try_bind" `Quick test_try_bind;
          Alcotest.test_case "finalize" `Quick test_finalize;
          Alcotest.test_case "counters" `Quick test_counters;
        ] );
      ( "time",
        [
          Alcotest.test_case "sleep ordering" `Quick test_sleep_ordering;
          Alcotest.test_case "yield" `Quick test_yield;
          Alcotest.test_case "with_timeout fires" `Quick test_with_timeout_fires;
          Alcotest.test_case "with_timeout passes" `Quick test_with_timeout_passes;
          Alcotest.test_case "deadlock detection" `Quick test_run_deadlock_detection;
        ] );
      ( "combinators",
        [
          Alcotest.test_case "join" `Quick test_join;
          Alcotest.test_case "join empty" `Quick test_join_empty;
          Alcotest.test_case "join collects failure" `Quick test_join_collects_failure;
          Alcotest.test_case "all preserves order" `Quick test_all_order;
          Alcotest.test_case "both" `Quick test_both;
          Alcotest.test_case "choose" `Quick test_choose_first;
          Alcotest.test_case "pick cancels losers" `Quick test_pick_cancels_losers;
        ] );
      ( "cancellation",
        [
          Alcotest.test_case "cancel sleep releases timer" `Quick test_cancel_sleep_releases_timer;
          Alcotest.test_case "cancel propagates through bind" `Quick
            test_cancel_propagates_through_bind;
          Alcotest.test_case "on_cancel hook" `Quick test_on_cancel_hook;
          Alcotest.test_case "async exception hook" `Quick test_async_exception_hook;
        ] );
      ( "mstream",
        [
          Alcotest.test_case "push/next" `Quick test_mstream_push_next;
          Alcotest.test_case "blocking reader" `Quick test_mstream_blocking_reader;
          Alcotest.test_case "close" `Quick test_mstream_close;
          Alcotest.test_case "close wakes blocked" `Quick test_mstream_close_wakes_blocked;
        ] );
      ( "sync",
        [
          Alcotest.test_case "semaphore bounds concurrency" `Quick test_msem_limits_concurrency;
          Alcotest.test_case "semaphore releases on failure" `Quick test_msem_release_on_failure;
          Alcotest.test_case "condition broadcast" `Quick test_mcond_broadcast;
        ] );
      ( "proxy",
        [
          Alcotest.test_case "recursive loop in constant space" `Quick test_loop_constant_space;
          Alcotest.test_case "cancel a running loop" `Quick test_loop_cancel;
          Alcotest.test_case "waiter order across a merge" `Quick test_merge_waiter_order;
          Alcotest.test_case "handlers returning pending promises" `Quick
            test_handlers_return_pending;
          Alcotest.test_case "state of a proxied promise" `Quick test_proxied_state;
        ] );
    ]
