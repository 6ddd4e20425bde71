(* Figure 7: threading. (a) time to create millions of sleeping threads on
   each platform — dominated by allocator and GC behaviour; (b) wakeup
   jitter CDF for a million parallel sleepers.

   (a) drives the pvboot heap model with one live allocation per thread
   (the paper's threads sleep 0.5-1.5 s, so all stay live) plus the
   platform's timer-registration syscall. (b) samples the platform's
   scheduler wakeup latency model. *)

let thread_bytes = 96 (* heap footprint of an Lwt sleeper: closure + timer *)

let creation_time platform n =
  let heap = Pvboot.Heap.create ~platform () in
  let total = ref 0 in
  for _ = 1 to n do
    total :=
      !total + Pvboot.Heap.alloc heap ~bytes:thread_bytes
      + Platform.syscall_cost platform 1 (* timer registration *)
      + 40 (* thread record init *)
  done;
  !total

let platforms =
  [
    ("Linux PV", Platform.linux_pv);
    ("Linux native", Platform.linux_native);
    ("Mirage (malloc)", Platform.xen_malloc);
    ("Mirage (extent)", Platform.xen_extent);
  ]

let fig7a () =
  Util.header "Figure 7a: thread creation time (s)";
  Printf.printf "  %-10s" "threads";
  List.iter (fun (n, _) -> Printf.printf " %-18s" n) platforms;
  print_newline ();
  List.iter
    (fun millions ->
      let n = millions * 1_000_000 in
      Printf.printf "  %-10s" (Printf.sprintf "%dM" millions);
      List.iter
        (fun (label, p) ->
          let t = Engine.Sim.to_sec (creation_time p n) in
          Util.emit ~figure:"fig7a"
            ~metric:(Printf.sprintf "create/%s/%dM" label millions)
            ~unit_:"s" t;
          Printf.printf " %-18.2f" t)
        platforms;
      print_newline ())
    [ 1; 5; 10; 15; 20 ]

let fig7b () =
  Util.header "Figure 7b: wakeup jitter for 10^6 parallel threads (ms)";
  Printf.printf "  %-18s %-10s %-10s %-10s %-10s\n" "platform" "p50" "p90" "p99" "p99.9";
  List.iter
    (fun (name, p) ->
      let prng = Engine.Prng.create ~seed:7 () in
      let samples =
        List.init 100_000 (fun _ ->
            let base = float_of_int p.Platform.timer_slack_ns in
            let tail =
              Engine.Prng.exponential prng ~mean:(float_of_int p.Platform.timer_jitter_ns /. 3.0)
            in
            (base +. tail) /. 1e6)
      in
      let qs = [ 50.0; 90.0; 99.0; 99.9 ] in
      let pcs = Engine.Stats.percentiles qs samples in
      List.iter2
        (fun q pc ->
          Util.emit ~figure:"fig7b" ~seed:7
            ~metric:(Printf.sprintf "wakeup-jitter/%s/p%g" name q)
            ~unit_:"ms" pc)
        qs pcs;
      Printf.printf "  %-18s" name;
      List.iter (Printf.printf " %-10.3f") pcs;
      print_newline ())
    [ ("Mirage", Platform.xen_extent); ("Linux native", Platform.linux_native);
      ("Linux PV", Platform.linux_pv) ]

let run () =
  fig7a ();
  fig7b ()
