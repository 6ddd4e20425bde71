type t = {
  sim : Engine.Sim.t;
  hv : Xensim.Hypervisor.t;
  dom0 : Xensim.Domain.t;
  bridge : Netsim.Bridge.t;
  toolstack : Xensim.Toolstack.t;
}

let running hv ~name ~mem_mib ~platform ?vcpus () =
  let d = Xensim.Hypervisor.create_domain hv ~name ~mem_mib ~platform ?vcpus () in
  d.Xensim.Domain.state <- Xensim.Domain.Running;
  d

(* The bridge splits the simulator's PRNG, so it is made after dom0 and
   before anything that draws from it. *)
let create ?(seed = 42) ?(seal_patch = true) ?(static_fdb = false) () =
  let sim = Engine.Sim.create ~seed () in
  let hv = Xensim.Hypervisor.create ~seal_patch sim in
  let dom0 = running hv ~name:"dom0" ~mem_mib:512 ~platform:Platform.linux_pv () in
  let bridge = Netsim.Bridge.create ~static_fdb sim in
  { sim; hv; dom0; bridge; toolstack = Xensim.Toolstack.create hv }

let domain w ?(platform = Platform.xen_extent) ?vcpus ~name () =
  running w.hv ~name ~mem_mib:64 ~platform ?vcpus ()

let run w p = Mthread.Promise.run w.sim p
