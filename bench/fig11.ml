(* Figure 11: OpenFlow controller throughput under cbench, batch and
   single modes, with per-switch fairness. *)

let switches = 16
let macs_per_switch = 100
let duration_ns = Engine.Sim.ms 250

let measure ~profile ~mode =
  let w = Util.make_world () in
  let ctl = Util.host w ~platform:Platform.xen_extent ~name:"controller" ~ip:"10.0.0.100" () in
  let gen =
    Util.host w ~platform:Platform.linux_native ~account_cpu:false
      ~bandwidth_bps:10_000_000_000 ~name:"cbench" ~ip:"10.0.0.9" ()
  in
  ignore
    (Openflow.Controller.create w.Util.sim ~dom:ctl.Util.dom
       ~tcp:(Netstack.Stack.tcp ctl.Util.stack) ~profile ());
  Util.run w
    (Openflow.Cbench.run w.Util.sim (Netstack.Stack.tcp gen.Util.stack)
       ~controller:(Netstack.Stack.address ctl.Util.stack) ~switches ~macs_per_switch ~mode
       ~duration_ns ())

let run () =
  Util.header "Figure 11: OpenFlow controller throughput (k-responses/s)";
  Printf.printf "  %-20s %-12s %-12s %-22s\n" "controller" "batch" "single" "batch fairness (cv)";
  List.iter
    (fun profile ->
      let b = measure ~profile ~mode:`Batch in
      let s = measure ~profile ~mode:`Single in
      let name = profile.Openflow.Controller.prof_name in
      Util.emit ~figure:"fig11"
        ~metric:(Printf.sprintf "openflow/%s/batch" name)
        ~unit_:"kresponses/s" (b.Openflow.Cbench.throughput /. 1e3);
      Util.emit ~figure:"fig11"
        ~metric:(Printf.sprintf "openflow/%s/single" name)
        ~unit_:"kresponses/s" (s.Openflow.Cbench.throughput /. 1e3);
      Printf.printf "  %-20s %-12.1f %-12.1f %-22.3f\n" profile.Openflow.Controller.prof_name
        (b.Openflow.Cbench.throughput /. 1e3)
        (s.Openflow.Cbench.throughput /. 1e3)
        b.Openflow.Cbench.fairness_cv)
    [ Openflow.Controller.maestro_profile; Openflow.Controller.nox_profile;
      Openflow.Controller.mirage_profile ];
  Printf.printf
    "  (paper shape: NOX fastest, Mirage between NOX and Maestro, Maestro collapses on\n";
  Printf.printf
    "   the single test. NOX's short-term batch unfairness is not modelled: our\n";
  Printf.printf
    "   controller services connections in arrival order, so cv stays near zero.)\n"
