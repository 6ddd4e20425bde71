(* The multikernel philosophy of paper 3.1 and the legacy-support story of
   5.2: multicore means multiple single-vCPU unikernels over one Xen
   instance, communicating through vchan shared-memory transports rather
   than shared state. Here a three-stage pipeline (producer -> transform ->
   consumer) streams data across three sealed unikernels, and we also show
   the micro-reboot trick of 4.1.1: reconfiguration = rebuild + reboot in
   tens of milliseconds.

     dune exec examples/multikernel.exe *)

module P = Mthread.Promise
open P.Infix

let () =
  let w = Core.Machine.create ~seed:3 () in
  let sim = w.Core.Machine.sim and hv = w.Core.Machine.hv in

  let boot name =
    let config = Core.Config.make ~app_name:name ~roots:[ "kv" ] () in
    P.run sim
      (Core.Unikernel.boot hv w.Core.Machine.toolstack ~config ~mem_mib:16
         ~main:(fun _ -> fst (P.wait ()) (* stay alive; the pipeline drives us *))
         ())
  in
  let producer = boot "producer" in
  let transform = boot "transform" in
  let consumer = boot "consumer" in
  Printf.printf "booted 3 unikernels (all sealed: %b)\n"
    (producer.Core.Unikernel.sealed && transform.Core.Unikernel.sealed
   && consumer.Core.Unikernel.sealed);

  (* vchan links: producer->transform, transform->consumer. *)
  let t_in, p_out =
    Xensim.Vchan.connect hv ~server:transform.Core.Unikernel.domain
      ~client:producer.Core.Unikernel.domain ()
  in
  let c_in, t_out =
    Xensim.Vchan.connect hv ~server:consumer.Core.Unikernel.domain
      ~client:transform.Core.Unikernel.domain ()
  in

  let chunks = 64 and chunk_bytes = 4096 in
  (* producer: stream numbered chunks *)
  P.async (fun () ->
      let rec send i =
        if i = chunks then begin
          Xensim.Vchan.close p_out;
          P.return ()
        end
        else begin
          let chunk = Bytestruct.create chunk_bytes in
          Bytestruct.fill chunk (Char.chr (Char.code 'a' + (i mod 26)));
          Xensim.Vchan.write p_out chunk >>= fun () -> send (i + 1)
        end
      in
      send 0);
  (* transform: uppercase everything *)
  P.async (fun () ->
      let rec pump () =
        Xensim.Vchan.read t_in ~max:8192 >>= function
        | None ->
          Xensim.Vchan.close t_out;
          P.return ()
        | Some data ->
          let up = Bytestruct.of_string (String.uppercase_ascii (Bytestruct.to_string data)) in
          Xensim.Vchan.write t_out up >>= pump
      in
      pump ());
  (* consumer: account the stream *)
  let received = ref 0 and uppercase = ref true in
  let consumer_done =
    let rec pump () =
      Xensim.Vchan.read c_in ~max:8192 >>= function
      | None -> P.return ()
      | Some data ->
        received := !received + Bytestruct.length data;
        String.iter (fun c -> if c < 'A' || c > 'Z' then uppercase := false)
          (Bytestruct.to_string data);
        pump ()
    in
    pump ()
  in
  let stats = hv.Xensim.Hypervisor.stats in
  Xensim.Xstats.reset stats;
  let t0 = Engine.Sim.now sim in
  P.run sim consumer_done;
  let dt = Engine.Sim.now sim - t0 in
  Printf.printf "pipeline: %d kB through 2 vchan hops in %.2f ms (%.0f MB/s end-to-end)\n"
    (!received / 1024) (Engine.Sim.to_ms dt)
    (float_of_int !received /. Engine.Sim.to_sec dt /. 1e6);
  Printf.printf "transformed correctly: %b; hypervisor notifications: %d for %d chunks\n"
    !uppercase stats.Xensim.Xstats.evtchn_notifies chunks;

  (* Micro-reboot (4.1.1): reconfigure the transform stage by rebuilding
     with a new configuration and rebooting — the whole cycle is tens of
     milliseconds, so redeployment-by-recompilation is viable. *)
  let t0 = Engine.Sim.now sim in
  Xensim.Hypervisor.destroy hv transform.Core.Unikernel.domain;
  let transform2 = boot "transform-v2" in
  let cycle = Engine.Sim.now sim - t0 in
  Printf.printf "micro-reboot of the transform stage: %.1f ms (new domain %d, sealed=%b)\n"
    (Engine.Sim.to_ms cycle) transform2.Core.Unikernel.domain.Xensim.Domain.id
    transform2.Core.Unikernel.sealed
