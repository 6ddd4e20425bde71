(* Capture overhead on the Figure 8 transfer: single-flow Linux→Mirage
   goodput with no capture, then again with a bridge-wide capture
   recording every frame. Because capture only retains pktbuf references
   — no PRNG draws, no scheduled events, no vCPU charges — the
   virtual-time goodput must not move; the gate pins all three lines.
   The enabled per-frame record cost (filter match + retain + ring
   store) is real wall-clock, reported for context but not gated. *)

let run () =
  Util.header "Capture overhead: Figure 8 single-flow goodput, capture off vs on";
  let transfer () =
    Fig8.transfer_throughput ~sender_platform:Platform.linux_pv
      ~receiver_platform:Platform.xen_extent ~flows:1
  in
  let off = transfer () in
  Util.capture_worlds := true;
  let on = transfer () in
  Util.capture_worlds := false;
  let captured =
    List.fold_left (fun acc c -> acc + Capture.matched c) 0 !Util.world_captures
  in
  Util.close_world_captures ();
  let overhead = if off > 0.0 then Float.max 0.0 ((off -. on) /. off *. 100.0) else 0.0 in
  Util.emit ~figure:"capture" ~metric:"goodput-capture-off" ~unit_:"Mbps" off;
  Util.emit ~figure:"capture" ~metric:"goodput-capture-on" ~unit_:"Mbps" on;
  Util.emit ~figure:"capture" ~metric:"overhead-pct" ~unit_:"%" overhead;
  Printf.printf "  %-28s %8.1f Mbps\n" "goodput, capture off" off;
  Printf.printf "  %-28s %8.1f Mbps  (%d frames captured)\n" "goodput, capture on" on captured;
  Printf.printf "  %-28s %8.2f %%\n" "goodput overhead" overhead;

  (* enabled-path per-frame cost: a representative TCP frame through
     filter match + retain/copy + ring store, amortised over the ring *)
  let cap =
    Capture.create ~name:"bench-record" ~capacity:256
      ~filter:
        (match Capture.parse_filter "tcp and port 5001" with
        | Ok f -> f
        | Error _ -> Capture.filter_all)
      ()
  in
  let frame =
    (* minimal ethernet+IPv4+TCP frame, dst port 5001 *)
    let b = Bytestruct.create 64 in
    Bytestruct.BE.set_uint16 b 12 0x0800;
    Bytestruct.set_uint8 b 14 0x45;
    Bytestruct.set_uint8 b 23 6;
    Bytestruct.BE.set_uint16 b 34 5001;
    Bytestruct.BE.set_uint16 b 36 5001;
    b
  in
  let iters = 1_000_000 in
  let t0 = Sys.time () in
  for i = 1 to iters do
    Capture.record cap ~dir:Netsim.Tx ~link:0 ~time_ns:i frame
  done;
  let per_op = (Sys.time () -. t0) *. 1e9 /. float_of_int iters in
  Capture.close cap;
  Util.emit ~figure:"capture" ~metric:"record-cost" ~unit_:"ns/op" per_op;
  Printf.printf "  %-28s %8.1f ns/op (wall-clock, not gated)\n" "enabled record cost" per_op
