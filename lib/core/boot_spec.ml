type t = {
  backend_dom : Xensim.Domain.t;
  bridge : Netsim.Bridge.t;
  config : Config.t;
  mode : [ `Sync | `Async ];
  mem_mib : int;
  ip : Netstack.Ipv4.config option;
  backend : Backend.t;
  quiet_net : bool;
      (* suppress the gratuitous ARP broadcast at stack bring-up — boot
         storms pre-seed ARP instead of announcing to 10⁴ ports *)
  rx_slots : int;
      (* receive credit the vif posts on its ring (netfront negotiates
         ring size); smaller rings keep 10⁴-vif storms cheap *)
  plan : Specialize.plan Lazy.t;
      (* the configure step, run once per template: clones share it *)
}

let make ~backend_dom ~bridge ~config ?(mode = `Async) ?(mem_mib = 32) ?ip
    ?(backend = Xen_direct.backend) ?(quiet_net = false) ?(rx_slots = 512) () =
  if mem_mib <= 0 then invalid_arg "Boot_spec.make: mem_mib must be positive";
  if rx_slots < 1 then invalid_arg "Boot_spec.make: rx_slots must be positive";
  let plan = lazy (Unikernel.configure ~target:backend.Backend.target config) in
  { backend_dom; bridge; config; mode; mem_mib; ip; backend; quiet_net; rx_slots; plan }

(* Stamp out replica N+1 from a template: same library configuration and
   placement, fresh identity. The ASR seed is re-derived from the replica
   name so every clone links a differently-randomised image (each
   deployment gets its own layout, §2.3.4) while staying deterministic
   for a deterministic name sequence. The plan is the template's: the
   libraries are the same, so configure ran once for all of them. *)
let clone t ~name ?ip ?aslr_seed () =
  let aslr_seed =
    match aslr_seed with
    | Some s -> s
    | None -> (t.config.Config.aslr_seed + Hashtbl.hash name) land 0xffffff
  in
  let config = { t.config with Config.app_name = name; aslr_seed } in
  { t with config; ip = (match ip with Some _ -> ip | None -> t.ip) }
