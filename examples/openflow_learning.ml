(* The OpenFlow appliance pair of 4.3: a Mirage controller unikernel and a
   software switch linked as libraries. The controller runs the learning-
   switch app; the switch starts empty and populates its flow table from
   controller decisions.

     dune exec examples/openflow_learning.exe *)

module P = Mthread.Promise

let mac = Netsim.mac_of_int

let eth ~dst ~src payload = dst ^ src ^ "\x08\x00" ^ payload

let () =
  let w = Core.World.create ~seed:66 () in
  let sim = w.Core.World.sim in
  let ctl = Core.World.host w ~name:"controller" ~ip:"10.0.0.100" () in
  let ctl_dom = ctl.Core.World.dom and ctl_stack = ctl.Core.World.stack in
  let sw_stack = (Core.World.host w ~name:"switch" ~ip:"10.0.0.10" ()).Core.World.stack in

  let controller =
    Openflow.Controller.create sim ~dom:ctl_dom ~tcp:(Netstack.Stack.tcp ctl_stack)
      ~profile:Openflow.Controller.mirage_profile ()
  in
  let wire = ref [] in
  let switch =
    P.run sim
      (Openflow.Switch.connect sim (Netstack.Stack.tcp sw_stack)
         ~controller:(Netstack.Stack.address ctl_stack) ~dpid:0xCAFEL ~n_ports:4
         ~send_frame:(fun ~port frame ->
           wire := (port, String.sub frame 0 6) :: !wire)
         ())
  in
  Engine.Sim.run sim;
  Printf.printf "controller sees %d connected switch(es)\n"
    (Openflow.Controller.switches_connected controller);

  let show label =
    Printf.printf "%-28s table=%d entries, packet_ins=%d, forwarded=%d frame(s)\n" label
      (Openflow.Flow_table.size (Openflow.Switch.flow_table switch))
      (Openflow.Controller.packet_ins controller)
      (List.length !wire)
  in
  (* Host A (port 1, mac 1) -> unknown mac 2: controller floods. *)
  Openflow.Switch.receive_frame switch ~in_port:1 (eth ~dst:(mac 2) ~src:(mac 1) "hi bob");
  Engine.Sim.run sim;
  show "A->B (unknown dst, flood):";
  (* B replies: controller knows A now; installs a flow. *)
  wire := [];
  Openflow.Switch.receive_frame switch ~in_port:2 (eth ~dst:(mac 1) ~src:(mac 2) "hi alice");
  Engine.Sim.run sim;
  show "B->A (learned, flow_mod):";
  (* Subsequent traffic is switched locally without the controller. *)
  wire := [];
  let before = Openflow.Controller.packet_ins controller in
  for _ = 1 to 5 do
    Openflow.Switch.receive_frame switch ~in_port:2 (eth ~dst:(mac 1) ~src:(mac 2) "fastpath")
  done;
  Engine.Sim.run sim;
  Printf.printf "%-28s 5 frames forwarded, %d new packet_ins (table hits=%d)\n"
    "B->A again (table hit):"
    (Openflow.Controller.packet_ins controller - before)
    (Openflow.Switch.table_hits switch)
