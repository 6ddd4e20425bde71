(* The paper's flagship appliance (4.2): an authoritative DNS server built
   from the zone file up — parse a Bind9-format zone, boot a sealed
   unikernel serving it over UDP with response memoisation, and fire
   queries at it.

     dune exec examples/dns_appliance.exe *)

module P = Mthread.Promise
open P.Infix

let zone_file =
  {|
$TTL 3600
$ORIGIN example.org.
@       IN SOA ns1 hostmaster ( 2013031600 7200 1800 1209600 300 )
        IN NS ns1
        IN MX 10 mail
ns1     IN A 10.0.0.53
www     IN A 10.0.0.80
        IN A 10.0.0.81
blog    IN CNAME www
mail    IN A 10.0.0.25
info    IN TXT "Mirage unikernel DNS appliance"
|}

let () =
  let w = Core.World.create ~seed:53 () in
  let sim = w.Core.World.sim in

  (* Parse the zone and build the authoritative database. *)
  let zone = Dns.Zone.parse ~origin:"example.org" zone_file in
  let db = Dns.Db.of_zone zone in
  Printf.printf "zone %s: %d records, %d names\n"
    (Dns.Dns_name.to_string zone.Dns.Zone.origin)
    (List.length zone.Dns.Zone.records) (Dns.Db.entries db);

  (* Boot the appliance. *)
  let config = Core.Appliance.dns_appliance () in
  let server_ref = ref None in
  let networked =
    Core.World.appliance w ~config ~ip:"10.0.0.53"
      ~main:(fun h ->
        let srv =
          Core.Apps.Net.Dns.create sim ~dom:(Core.Appliance.Handle.domain h)
            ~udp:(Netstack.Stack.udp (Core.Appliance.Handle.stack h)) ~db
            ~engine:(Dns.Server.Mirage { memoize = true }) ()
        in
        server_ref := Some srv;
        P.sleep sim (Engine.Sim.sec 3600) >>= fun () -> P.return 0)
      ()
    |> Core.Appliance.Handle.networked
  in
  Printf.printf "appliance image: %d kB (%d kB before dead-code elimination), sealed=%b\n"
    (networked.Core.Appliance.unikernel.Core.Unikernel.image.Core.Linker.total_bytes / 1024)
    ((Core.Specialize.plan config Core.Specialize.Standard).Core.Specialize.total_bytes / 1024)
    networked.Core.Appliance.unikernel.Core.Unikernel.sealed;

  (* A resolver host asks questions. *)
  let client =
    (Core.World.host w ~platform:Platform.linux_native ~account_cpu:false ~name:"resolver"
       ~ip:"10.0.0.9" ()).Core.World.stack
  in
  let server_ip = Netstack.Stack.address (Core.Appliance.stack networked) in
  let resolver = Core.Apps.Net.Dns.Client.create sim (Netstack.Stack.udp client) in
  let ask qname qtype =
    match
      P.run sim
        (Core.Apps.Net.Dns.Client.query resolver ~server:server_ip
           ~qname:(Dns.Dns_name.of_string qname) ~qtype ())
    with
    | None -> Printf.printf "  %-22s -> (timeout)\n" qname
    | Some reply ->
      let rcode = reply.Dns.Dns_wire.flags.Dns.Dns_wire.rcode in
      let answers =
        List.map
          (fun (rr : Dns.Dns_wire.rr) ->
            match rr.Dns.Dns_wire.rdata with
            | Dns.Dns_wire.A_data a -> Netstack.Ipaddr.to_string a
            | Dns.Dns_wire.CNAME_data n -> "CNAME " ^ Dns.Dns_name.to_string n
            | Dns.Dns_wire.MX_data (p, n) -> Printf.sprintf "MX %d %s" p (Dns.Dns_name.to_string n)
            | Dns.Dns_wire.TXT_data s -> "TXT " ^ s
            | _ -> "...")
          reply.Dns.Dns_wire.answers
      in
      Printf.printf "  %-22s -> %s%s\n" qname
        (if rcode = Dns.Dns_wire.Name_error then "NXDOMAIN" else String.concat ", " answers)
        (if rcode = Dns.Dns_wire.No_error && answers = [] then "(no data)" else "")
  in
  print_endline "queries:";
  ask "www.example.org" Dns.Dns_wire.A;
  ask "blog.example.org" Dns.Dns_wire.A;
  ask "example.org" Dns.Dns_wire.MX;
  ask "info.example.org" Dns.Dns_wire.TXT;
  ask "ghost.example.org" Dns.Dns_wire.A;
  ask "www.example.org" Dns.Dns_wire.A;
  (match !server_ref with
  | Some srv ->
    Printf.printf "server: %d queries served" (Core.Apps.Net.Dns.queries_served srv);
    (match Core.Apps.Net.Dns.memo srv with
    | Some m -> Printf.printf "; memo hits %d, misses %d\n" (Dns.Memo.hits m) (Dns.Memo.misses m)
    | None -> print_newline ())
  | None -> ())
