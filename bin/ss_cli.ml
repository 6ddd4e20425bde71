(* mirage_sim ss: live connection introspection, `ss -tuoni` style.

   Boots the web-server + client scenario it shares with `mirage_sim pcap`
   (HTTP on :80, UDP echo on :53) and snapshots both stacks' socket
   tables — once mid-run while connections are in flight, once at the
   end. Each row carries what the paper's operators would get from ss
   on a Linux guest: state, queue depths, cwnd/ssthresh, srtt/rto,
   retransmit count and age. [--loss] makes the retx column move. *)

open Cmdliner
module P = Mthread.Promise

let ( >>= ) = P.bind

let run_ss seed duration_ms loss =
  let w = Core.World.create ~seed () in
  let sim = w.Core.World.sim in
  let duration_ns = Engine.Sim.ms duration_ms in

  let server, client_stack =
    Scenario.web_and_echo w ~aslr_seed:0x55 ~page_bytes:4096 ~loss ~duration_ns
      ~http_gap_ns:(Engine.Sim.ms 5) ~query:(Printf.sprintf "q%d") ~query_gap_ns:(Engine.Sim.ms 20)
      ()
  in
  let dst = Core.Appliance.Handle.address server in

  (* Snapshot mid-run (connections in flight) and at the end. *)
  let snapshots = Buffer.create 2048 in
  let snap label =
    Buffer.add_string snapshots
      (Printf.sprintf "---- %s (t=%.1f ms) ----\n" label
         (Engine.Sim.to_ms (Engine.Sim.now sim)));
    Buffer.add_string snapshots
      (Printf.sprintf "[server %s]\n%s"
         (Netstack.Ipaddr.to_string dst)
         (Netstack.Ss.render (Core.Appliance.Handle.stack server)));
    Buffer.add_string snapshots
      (Printf.sprintf "[client %s]\n%s\n"
         (Netstack.Ipaddr.to_string (Netstack.Stack.address client_stack))
         (Netstack.Ss.render client_stack))
  in
  P.async (fun () -> P.sleep sim (duration_ns / 2) >>= fun () -> P.return (snap "mid-run"));
  let started = Engine.Sim.now sim in
  Engine.Sim.run ~until:(started + duration_ns) sim;
  snap "end of run";
  print_string (Buffer.contents snapshots)

let cmd =
  let doc = "Boot a client/server scenario and render ss-style socket tables" in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Simulation PRNG seed.") in
  let duration =
    Arg.(value & opt int 500 & info [ "duration-ms" ] ~docv:"MS" ~doc:"Virtual run length.")
  in
  let loss =
    Arg.(
      value & opt float 0.0
      & info [ "loss" ] ~docv:"P"
          ~doc:"Uniform loss probability on the server link (makes retx move).")
  in
  Cmd.v (Cmd.info "ss" ~doc) Term.(const run_ss $ seed $ duration $ loss)
