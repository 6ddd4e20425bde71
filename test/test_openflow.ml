open Testlib
module P = Mthread.Promise
module OF = Openflow.Of_wire

(* ---- wire ---- *)

let roundtrip msg =
  let s = OF.encode ~xid:42 msg in
  let xid, msg' = OF.decode s 0 (String.length s) in
  check_int "xid" 42 xid;
  msg'

let test_wire_hello_echo () =
  (match roundtrip OF.Hello with OF.Hello -> () | _ -> Alcotest.fail "hello");
  (match roundtrip (OF.Echo_request "probe") with
  | OF.Echo_request s -> check_string "echo payload" "probe" s
  | _ -> Alcotest.fail "echo_request");
  match roundtrip (OF.Echo_reply "") with
  | OF.Echo_reply "" -> ()
  | _ -> Alcotest.fail "echo_reply"

let test_wire_features () =
  (match roundtrip OF.Features_request with OF.Features_request -> () | _ -> Alcotest.fail "freq");
  match roundtrip (OF.Features_reply { OF.datapath_id = 0x1122334455667788L; n_buffers = 256; n_tables = 2 }) with
  | OF.Features_reply f ->
    Alcotest.(check int64) "dpid" 0x1122334455667788L f.OF.datapath_id;
    check_int "buffers" 256 f.OF.n_buffers;
    check_int "tables" 2 f.OF.n_tables
  | _ -> Alcotest.fail "features_reply"

let test_wire_packet_in () =
  let pi =
    { OF.pi_buffer_id = 99l; total_len = 64; pi_in_port = 3; reason = `No_match; data = pattern 60 }
  in
  match roundtrip (OF.Packet_in pi) with
  | OF.Packet_in p ->
    Alcotest.(check int32) "buffer" 99l p.OF.pi_buffer_id;
    check_int "port" 3 p.OF.pi_in_port;
    check_bool "reason" true (p.OF.reason = `No_match);
    check_string "data" (pattern 60) p.OF.data
  | _ -> Alcotest.fail "packet_in"

let test_wire_packet_out () =
  let po =
    { OF.po_buffer_id = -1l; po_in_port = 1;
      po_actions = [ OF.Output 4; OF.Output OF.output_flood ]; po_data = "raw frame" }
  in
  match roundtrip (OF.Packet_out po) with
  | OF.Packet_out p ->
    check_int "two actions" 2 (List.length p.OF.po_actions);
    check_bool "flood action" true (List.mem (OF.Output OF.output_flood) p.OF.po_actions);
    check_string "data" "raw frame" p.OF.po_data
  | _ -> Alcotest.fail "packet_out"

let test_wire_flow_mod () =
  let fm =
    { OF.fm_match = OF.match_l2 ~in_port:7 ~dl_src:(Netsim.mac_of_int 1) ~dl_dst:(Netsim.mac_of_int 2);
      cookie = 0xC00C13L; command = `Add; idle_timeout = 60; hard_timeout = 300; priority = 1000;
      buffer_id = 5l; fm_actions = [ OF.Output 2 ] }
  in
  match roundtrip (OF.Flow_mod fm) with
  | OF.Flow_mod f ->
    Alcotest.(check int64) "cookie" 0xC00C13L f.OF.cookie;
    check_bool "command" true (f.OF.command = `Add);
    check_int "priority" 1000 f.OF.priority;
    check_int "idle" 60 f.OF.idle_timeout;
    check_bool "match in_port" true (f.OF.fm_match.OF.in_port = 7 && not f.OF.fm_match.OF.wildcard_in_port);
    check_string "dl_dst" (Netsim.mac_of_int 2) f.OF.fm_match.OF.dl_dst;
    check_bool "actions" true (f.OF.fm_actions = [ OF.Output 2 ])
  | _ -> Alcotest.fail "flow_mod"

let test_wire_framing_stream () =
  (* Multiple messages back to back in one buffer. *)
  let s = OF.encode ~xid:1 OF.Hello ^ OF.encode ~xid:2 (OF.Echo_request "x") in
  (match OF.decode_header s 0 with
  | Some (_, 0, len, 1) ->
    let _, m1 = OF.decode s 0 len in
    check_bool "first is hello" true (m1 = OF.Hello);
    (match OF.decode_header s len with
    | Some (_, 2, len2, 2) -> (
      match OF.decode s len (len2 : int) with
      | _, OF.Echo_request "x" -> ()
      | _ -> Alcotest.fail "second message")
    | _ -> Alcotest.fail "second header")
  | _ -> Alcotest.fail "first header");
  check_bool "incomplete header is None" true (OF.decode_header "\x01\x00" 0 = None)

let test_wire_bad_version () =
  let s = OF.encode ~xid:1 OF.Hello in
  let b = Bytes.of_string s in
  Bytes.set b 0 '\x04';
  match OF.decode (Bytes.to_string b) 0 (String.length s) with
  | exception OF.Decode_error _ -> ()
  | _ -> Alcotest.fail "wrong version rejected"

(* ---- flow table ---- *)

let mac = Netsim.mac_of_int

let match_all =
  { (OF.match_l2 ~in_port:0 ~dl_src:(mac 0) ~dl_dst:(mac 0)) with
    OF.wildcard_in_port = true; wildcard_dl_src = true; wildcard_dl_dst = true }

let test_flow_table_priority () =
  let t = Openflow.Flow_table.create () in
  Openflow.Flow_table.add t
    { Openflow.Flow_table.priority = 10; match_ = match_all; actions = [ OF.Output 1 ]; cookie = 1L };
  Openflow.Flow_table.add t
    { Openflow.Flow_table.priority = 100;
      match_ = OF.match_l2 ~in_port:1 ~dl_src:(mac 1) ~dl_dst:(mac 2);
      actions = [ OF.Output 2 ]; cookie = 2L };
  (match Openflow.Flow_table.lookup t ~in_port:1 ~dl_src:(mac 1) ~dl_dst:(mac 2) with
  | Some e -> check_int "specific wins" 100 e.Openflow.Flow_table.priority
  | None -> Alcotest.fail "expected match");
  (match Openflow.Flow_table.lookup t ~in_port:9 ~dl_src:(mac 7) ~dl_dst:(mac 8) with
  | Some e -> check_int "wildcard catches rest" 10 e.Openflow.Flow_table.priority
  | None -> Alcotest.fail "expected wildcard match");
  check_int "lookups counted" 2 (Openflow.Flow_table.lookups t);
  check_int "hits counted" 2 (Openflow.Flow_table.hits t)

let test_flow_table_delete () =
  let t = Openflow.Flow_table.create () in
  let m = OF.match_l2 ~in_port:1 ~dl_src:(mac 1) ~dl_dst:(mac 2) in
  Openflow.Flow_table.add t { Openflow.Flow_table.priority = 1; match_ = m; actions = []; cookie = 0L };
  check_int "one entry" 1 (Openflow.Flow_table.size t);
  Openflow.Flow_table.delete t m;
  check_int "deleted" 0 (Openflow.Flow_table.size t);
  check_bool "miss after delete" true
    (Openflow.Flow_table.lookup t ~in_port:1 ~dl_src:(mac 1) ~dl_dst:(mac 2) = None)

(* ---- controller + switch integration ---- *)

let of_world () =
  let w = create () in
  let ctl_host = host w ~platform:Platform.xen_extent ~name:"controller" ~ip:"10.0.0.100" () in
  let sw_host =
    host w ~platform:Platform.linux_pv ~account_cpu:false ~name:"switch" ~ip:"10.0.0.10" ()
  in
  (w, ctl_host, sw_host)

let eth ~dst ~src = dst ^ src ^ "\x08\x00" ^ String.make 50 'p'

let test_learning_switch_end_to_end () =
  let w, ctl_host, sw_host = of_world () in
  let ctl =
    Openflow.Controller.create w.sim ~dom:ctl_host.dom ~tcp:(Netstack.Stack.tcp ctl_host.stack)
      ~profile:Openflow.Controller.mirage_profile ()
  in
  let sent_frames = ref [] in
  let sw =
    run w
      (Openflow.Switch.connect w.sim (Netstack.Stack.tcp sw_host.stack)
         ~controller:(Netstack.Stack.address ctl_host.stack) ~dpid:42L ~n_ports:4
         ~send_frame:(fun ~port frame -> sent_frames := (port, frame) :: !sent_frames)
         ())
  in
  Engine.Sim.run w.sim;
  check_int "handshake complete" 1 (Openflow.Controller.switches_connected ctl);
  (* Host A (mac 1) on port 1 talks to unknown mac 2: flood. *)
  Openflow.Switch.receive_frame sw ~in_port:1 (eth ~dst:(mac 2) ~src:(mac 1));
  Engine.Sim.run w.sim;
  check_int "controller saw packet_in" 1 (Openflow.Controller.packet_ins ctl);
  check_int "flooded to 3 other ports" 3 (List.length !sent_frames);
  (* Host B (mac 2) on port 2 replies: controller now knows mac 1 -> port 1,
     installs a flow and forwards. *)
  sent_frames := [];
  Openflow.Switch.receive_frame sw ~in_port:2 (eth ~dst:(mac 1) ~src:(mac 2));
  Engine.Sim.run w.sim;
  check_int "unicast to port 1" 1 (List.length !sent_frames);
  (match !sent_frames with [ (port, _) ] -> check_int "right port" 1 port | _ -> ());
  check_int "flow installed" 1 (Openflow.Flow_table.size (Openflow.Switch.flow_table sw));
  (* Third frame on the same flow hits the table, no packet_in. *)
  sent_frames := [];
  let pi_before = Openflow.Controller.packet_ins ctl in
  Openflow.Switch.receive_frame sw ~in_port:2 (eth ~dst:(mac 1) ~src:(mac 2));
  Engine.Sim.run w.sim;
  check_int "table hit, no controller round" pi_before (Openflow.Controller.packet_ins ctl);
  check_int "forwarded directly" 1 (List.length !sent_frames);
  check_bool "no buffered packets leak" true (Openflow.Switch.buffered_packets sw = 0)

let test_cbench_profiles_ordering () =
  (* Figure 11's shape at miniature scale: NOX > Mirage > Maestro in batch
     mode; Maestro collapses in single mode. *)
  let measure profile mode =
    let w, ctl_host, sw_host = of_world () in
    ignore
      (Openflow.Controller.create w.sim ~dom:ctl_host.dom ~tcp:(Netstack.Stack.tcp ctl_host.stack)
         ~profile ());
    let result =
      run w
        (Openflow.Cbench.run w.sim (Netstack.Stack.tcp sw_host.stack)
           ~controller:(Netstack.Stack.address ctl_host.stack) ~switches:4 ~macs_per_switch:16
           ~mode ~duration_ns:(Engine.Sim.ms 300) ())
    in
    result.Openflow.Cbench.throughput
  in
  let nox_b = measure Openflow.Controller.nox_profile `Batch in
  let mir_b = measure Openflow.Controller.mirage_profile `Batch in
  let mae_b = measure Openflow.Controller.maestro_profile `Batch in
  let mae_s = measure Openflow.Controller.maestro_profile `Single in
  check_bool (Printf.sprintf "nox (%.0f) > mirage (%.0f)" nox_b mir_b) true (nox_b > mir_b);
  check_bool (Printf.sprintf "mirage (%.0f) > maestro (%.0f)" mir_b mae_b) true (mir_b > mae_b);
  check_bool (Printf.sprintf "maestro single (%.0f) collapses vs batch (%.0f)" mae_s mae_b) true
    (mae_s < mae_b /. 2.0)

let test_cbench_counts_and_fairness () =
  let w, ctl_host, sw_host = of_world () in
  ignore
    (Openflow.Controller.create w.sim ~dom:ctl_host.dom ~tcp:(Netstack.Stack.tcp ctl_host.stack)
       ~profile:Openflow.Controller.mirage_profile ());
  let result =
    run w
      (Openflow.Cbench.run w.sim (Netstack.Stack.tcp sw_host.stack)
         ~controller:(Netstack.Stack.address ctl_host.stack) ~switches:4 ~macs_per_switch:8
         ~mode:`Single ~duration_ns:(Engine.Sim.ms 200) ())
  in
  check_bool "responses flowed" true (result.Openflow.Cbench.responses > 100);
  check_int "per-switch array" 4 (Array.length result.Openflow.Cbench.per_switch);
  Array.iter (fun c -> check_bool "every switch served" true (c > 0)) result.Openflow.Cbench.per_switch;
  check_bool "single mode is fair" true (result.Openflow.Cbench.fairness_cv < 0.2)

let () =
  Alcotest.run "openflow"
    [
      ( "wire",
        [
          Alcotest.test_case "hello/echo" `Quick test_wire_hello_echo;
          Alcotest.test_case "features" `Quick test_wire_features;
          Alcotest.test_case "packet_in" `Quick test_wire_packet_in;
          Alcotest.test_case "packet_out" `Quick test_wire_packet_out;
          Alcotest.test_case "flow_mod" `Quick test_wire_flow_mod;
          Alcotest.test_case "stream framing" `Quick test_wire_framing_stream;
          Alcotest.test_case "bad version" `Quick test_wire_bad_version;
        ] );
      ( "flow_table",
        [
          Alcotest.test_case "priority matching" `Quick test_flow_table_priority;
          Alcotest.test_case "delete" `Quick test_flow_table_delete;
        ] );
      ( "integration",
        [
          Alcotest.test_case "learning switch end to end" `Quick test_learning_switch_end_to_end;
          Alcotest.test_case "cbench profile ordering" `Quick test_cbench_profiles_ordering;
          Alcotest.test_case "cbench counts and fairness" `Quick test_cbench_counts_and_fairness;
        ] );
    ]
