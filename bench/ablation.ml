(* Ablations of the design decisions DESIGN.md calls out, beyond those
   already embedded in the figures (memoisation in fig10, extent-vs-malloc
   heaps in fig7a, sync-vs-async toolstack in fig5/6, DCE in table2):

   1. vchan vs. TCP-through-the-bridge for on-host inter-VM transport
      (paper 3.5.1's case for the shared-memory path);
   2. the ring event-suppression protocol vs. notify-on-every-push;
   3. micro-reboot cycle time (4.1.1: redeployment by reconfiguration);
   4. the cost of sealing at boot (2.3.3: defence-in-depth is nearly free). *)

module P = Mthread.Promise
open P.Infix

let transfer_bytes = 4 * 1024 * 1024

(* --- 1. vchan vs TCP --- *)

let vchan_throughput () =
  let w = Util.make_world () in
  let a = Util.domain w ~name:"a" () and b = Util.domain w ~name:"b" () in
  let b_ep, a_ep = Xensim.Vchan.connect w.Util.hv ~server:b ~client:a ~ring_bytes:65536 () in
  let chunk = Bytestruct.create 16384 in
  P.async (fun () ->
      let rec send remaining =
        if remaining <= 0 then begin
          Xensim.Vchan.close a_ep;
          P.return ()
        end
        else Xensim.Vchan.write a_ep chunk >>= fun () -> send (remaining - Bytestruct.length chunk)
      in
      send transfer_bytes);
  let received = ref 0 in
  let t0 = Engine.Sim.now w.Util.sim in
  Util.run w
    (let rec drain () =
       Xensim.Vchan.read b_ep ~max:65536 >>= function
       | None -> P.return ()
       | Some d ->
         received := !received + Bytestruct.length d;
         drain ()
     in
     drain ());
  let dt = Engine.Sim.now w.Util.sim - t0 in
  float_of_int !received /. Engine.Sim.to_sec dt /. 1e6

let tcp_throughput () =
  let w = Util.make_world () in
  let a =
    Util.host w ~platform:Platform.xen_extent ~bandwidth_bps:10_000_000_000 ~name:"a"
      ~ip:"10.0.0.1" ()
  in
  let b =
    Util.host w ~platform:Platform.xen_extent ~bandwidth_bps:10_000_000_000 ~name:"b"
      ~ip:"10.0.0.2" ()
  in
  let received = ref 0 in
  let done_p, done_u = P.wait () in
  Netstack.Tcp.listen (Netstack.Stack.tcp b.Util.stack) ~port:9 (fun flow ->
      let rec drain () =
        Netstack.Tcp.read flow >>= function
        | None ->
          P.wakeup done_u ();
          P.return ()
        | Some c ->
          received := !received + Bytestruct.length c;
          drain ()
      in
      drain ());
  let t0 = Engine.Sim.now w.Util.sim in
  Util.run w
    (Netstack.Tcp.connect (Netstack.Stack.tcp a.Util.stack) ~dst:(Netstack.Stack.address b.Util.stack)
       ~dst_port:9
     >>= fun flow ->
     let chunk = Util.bs (String.make 16384 'x') in
     let rec send remaining =
       if remaining <= 0 then Netstack.Tcp.close flow
       else Netstack.Tcp.write flow chunk >>= fun () -> send (remaining - 16384)
     in
     send transfer_bytes);
  Util.run w done_p;
  let dt = Engine.Sim.now w.Util.sim - t0 in
  float_of_int !received /. Engine.Sim.to_sec dt /. 1e6

(* --- 2. ring event suppression --- *)

let ring_notifications ~suppression =
  let page = Bytestruct.create 4096 in
  let sring = Xensim.Ring.Sring.init page ~slot_bytes:16 in
  let front = Xensim.Ring.Front.init sring in
  let back = Xensim.Ring.Back.init (Xensim.Ring.Sring.attach page ~slot_bytes:16) in
  let notifications = ref 0 in
  let consumed = ref 0 in
  let requests = 10_000 in
  (* The consumer drains only when notified — the realistic blocked-backend
     case that suppression optimises. *)
  let consumer_wakeup () =
    incr notifications;
    let n = Xensim.Ring.Back.consume_requests back (fun _ -> ()) in
    consumed := !consumed + n;
    (* complete responses so the producer is never ring-limited *)
    for _ = 1 to n do
      ignore (Xensim.Ring.Back.next_response back)
    done;
    ignore (Xensim.Ring.Back.push_responses_and_check_notify back);
    ignore (Xensim.Ring.Front.consume_responses front (fun _ -> ()))
  in
  (* The producer works in bursts of 32 requests (a netfront transmitting a
     congestion window). With suppression it publishes the burst with one
     push and notifies only if the consumer had armed the event; a naive
     driver kicks the event channel for every single request. *)
  let burst = 32 in
  for _ = 1 to requests / burst do
    if suppression then begin
      for _ = 1 to burst do
        let s = Xensim.Ring.Front.next_request front in
        Bytestruct.LE.set_uint32 s 0 1l
      done;
      if Xensim.Ring.Front.push_requests_and_check_notify front then consumer_wakeup ()
    end
    else
      for _ = 1 to burst do
        let s = Xensim.Ring.Front.next_request front in
        Bytestruct.LE.set_uint32 s 0 1l;
        ignore (Xensim.Ring.Front.push_requests_and_check_notify front);
        consumer_wakeup ()
      done
  done;
  consumer_wakeup ();
  (!notifications, !consumed)

(* --- 3. micro-reboot --- *)

let micro_reboot_cycle () =
  let w = Util.make_world () in
  let boot () =
    Util.run w
      (Core.Unikernel.boot w.Util.hv w.Util.toolstack
         ~config:(Core.Appliance.dns_appliance ()) ~mem_mib:32
         ~main:(fun _ -> fst (P.wait ()))
         ())
  in
  let first = boot () in
  let t0 = Engine.Sim.now w.Util.sim in
  Xensim.Hypervisor.destroy w.Util.hv first.Core.Unikernel.domain;
  ignore (boot ());
  Engine.Sim.to_ms (Engine.Sim.now w.Util.sim - t0)

(* --- 4. sealing cost --- *)

let boot_ms ~seal =
  let w = Util.make_world () in
  let t0 = Engine.Sim.now w.Util.sim in
  let u =
    Util.run w
      (Core.Unikernel.boot w.Util.hv w.Util.toolstack ~seal
         ~config:(Core.Appliance.dns_appliance ()) ~mem_mib:32
         ~main:(fun _ -> fst (P.wait ()))
         ())
  in
  (Engine.Sim.to_ms (u.Core.Unikernel.ready_at_ns - t0), u.Core.Unikernel.sealed)

let run () =
  Util.header "Ablation: vchan vs TCP for on-host inter-VM transport (3.5.1)";
  let v = vchan_throughput () in
  let t = tcp_throughput () in
  Util.emit ~figure:"ablation" ~metric:"transport/vchan" ~unit_:"MB/s" v;
  Util.emit ~figure:"ablation" ~metric:"transport/tcp-netfront" ~unit_:"MB/s" t;
  Printf.printf "  vchan shared memory : %8.0f MB/s\n" v;
  Printf.printf "  TCP via netfront    : %8.0f MB/s   (vchan is %.1fx faster)\n" t (v /. t);
  Util.header "Ablation: ring event suppression (3.4)";
  let n_sup, c1 = ring_notifications ~suppression:true in
  let n_naive, c2 = ring_notifications ~suppression:false in
  Util.emit ~figure:"ablation" ~metric:"ring/notifications-suppressed" ~unit_:"count"
    (float_of_int n_sup);
  Util.emit ~figure:"ablation" ~metric:"ring/notifications-naive" ~unit_:"count"
    (float_of_int n_naive);
  Printf.printf "  with suppression    : %6d notifications for %d requests\n" n_sup c1;
  Printf.printf "  notify every push   : %6d notifications for %d requests (%.0fx more)\n"
    n_naive c2
    (float_of_int n_naive /. float_of_int (max 1 n_sup));
  Util.header "Ablation: micro-reboot cycle (4.1.1)";
  let reboot_ms = micro_reboot_cycle () in
  Util.emit ~figure:"ablation" ~metric:"micro-reboot/cycle" ~unit_:"ms" reboot_ms;
  Printf.printf "  destroy + rebuild + reboot + reseal: %.1f ms\n" reboot_ms;
  Util.header "Ablation: sealing cost at boot (2.3.3)";
  let with_seal, sealed = boot_ms ~seal:true in
  let without, unsealed = boot_ms ~seal:false in
  Util.emit ~figure:"ablation" ~metric:"sealing/boot-sealed" ~unit_:"ms" with_seal;
  Util.emit ~figure:"ablation" ~metric:"sealing/boot-unsealed" ~unit_:"ms" without;
  Printf.printf "  sealed boot   : %.2f ms (sealed=%b)\n" with_seal sealed;
  Printf.printf "  unsealed boot : %.2f ms (sealed=%b) -> overhead %.3f ms\n" without unsealed
    (with_seal -. without)
