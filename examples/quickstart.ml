(* Quickstart: configure, specialise, link and boot a unikernel on the
   simulated Xen host, then talk to it over the simulated network.

     dune exec examples/quickstart.exe *)

module P = Mthread.Promise
open P.Infix

let () =
  (* A simulated machine: hypervisor (with the seal patch), a control
     domain, a bridged network. *)
  let w = Core.World.create ~seed:2013 () in
  let sim = w.Core.World.sim in

  (* 1. Configuration as code (paper 2.1): pick libraries and typed keys. *)
  let config =
    Core.Config.make ~app_name:"hello-unikernel" ~roots:[ "http"; "icmp" ]
      ~bindings:[ Core.Config.static "greeting" (Core.Config.String "hello from a unikernel") ]
      ~aslr_seed:42 ()
  in

  (* 2. Specialise: dependency closure + dead-code elimination (2.2). *)
  let plan = Core.Specialize.plan config Core.Specialize.Ocamlclean in
  Printf.printf "linked libraries : %s\n"
    (String.concat ", " (List.map (fun l -> l.Core.Library_registry.lib_name) plan.Core.Specialize.libs));
  Printf.printf "image size       : %d kB (standard build would be %d kB)\n"
    (plan.Core.Specialize.total_bytes / 1024)
    ((Core.Specialize.plan config Core.Specialize.Standard).Core.Specialize.total_bytes / 1024);

  (* 3. Boot: toolstack build, randomised layout install, seal, run main. *)
  let greeting = match Core.Config.string config "greeting" with Some s -> s | None -> "?" in
  let t0 = Engine.Sim.now sim in
  let networked =
    Core.World.appliance w ~config ~ip:"10.0.0.2"
      ~main:(fun h ->
        (* a one-route HTTP appliance *)
        let router = Uhttp.Router.create () in
        Uhttp.Router.add router Uhttp.Http_wire.GET "/" (fun _ _ ->
            P.return (Uhttp.Http_wire.response ~status:200 greeting));
        ignore
          (Core.Apps.Net.Http.of_router sim ~dom:(Core.Appliance.Handle.domain h)
             ~tcp:(Netstack.Stack.tcp (Core.Appliance.Handle.stack h)) ~port:80 router);
        P.sleep sim (Engine.Sim.sec 3600) >>= fun () -> P.return 0)
      ()
    |> Core.Appliance.Handle.networked
  in
  Printf.printf "booted in        : %.1f ms (sealed=%b, %d randomised sections)\n"
    (Engine.Sim.to_ms (networked.Core.Appliance.unikernel.Core.Unikernel.ready_at_ns - t0))
    networked.Core.Appliance.unikernel.Core.Unikernel.sealed
    (List.length networked.Core.Appliance.unikernel.Core.Unikernel.image.Core.Linker.sections);

  (* 4. A client host talks to it. *)
  let client =
    (Core.World.host w ~platform:Platform.linux_native ~account_cpu:false ~name:"client"
       ~ip:"10.0.0.9" ()).Core.World.stack
  in
  let rtt =
    P.run sim
      (Netstack.Icmp4.ping (Netstack.Stack.icmp client)
         ~dst:(Netstack.Stack.address (Core.Appliance.stack networked)) ~seq:1)
  in
  Printf.printf "ping             : %.1f us\n" (float_of_int rtt /. 1e3);
  let resp =
    P.run sim
      (Core.Apps.Net.Http_client.get_once (Netstack.Stack.tcp client)
         ~dst:(Netstack.Stack.address (Core.Appliance.stack networked)) ~port:80 "/")
  in
  Printf.printf "GET /            : %d %s\n" resp.Uhttp.Http_wire.status resp.Uhttp.Http_wire.resp_body;

  (* 5. The seal holds: code injection is impossible (2.3.3). *)
  let pt = networked.Core.Appliance.unikernel.Core.Unikernel.domain.Xensim.Domain.pagetable in
  (match Xensim.Pagetable.add_region pt ~va:0x31337000 ~len:4096
           ~perm:Xensim.Pagetable.Read_exec ~label:"shellcode" with
  | exception Xensim.Pagetable.Sealed_violation _ ->
    Printf.printf "sealed           : injecting an executable page is refused\n"
  | () -> assert false)
