(* The configure step (paper §3, Fig. 2): every protocol server in the
   tree is a functor over Device_sig signatures, and this module is the
   single place they meet a concrete backend. [Net] instantiates them
   over the unikernel netstack — what a Posix_direct or Xen_direct
   appliance runs; [Host] over Hostnet's host-kernel sockets — the
   Posix_sockets developer target. Application code built against either
   is line-for-line identical; only this file differs between targets. *)

module Net = struct
  module Http = Uhttp.Server.Make (Netstack.Device.Tcp)
  module Http_client = Uhttp.Client.Make (Netstack.Device.Tcp)
  module Httperf = Uhttp.Httperf.Make (Netstack.Device.Tcp)
  module Dns = Dns.Server.Make (Netstack.Device.Udp)
  module Baseline = Baseline.Appliances.Make (Netstack.Device.Tcp)
  module Monitor = Monitor.Make (Netstack.Device.Tcp)
  module Loadgen = Lb.Loadgen.Make (Netstack.Device.Tcp)
  module Orchestrator = Orchestrator.Make (Netstack.Device.Tcp)
  module Lb = Lb.Balancer.Make (Netstack.Device.Tcp)
end

module Host = struct
  module Http = Uhttp.Server.Make (Hostnet.Device.Tcp)
  module Dns = Dns.Server.Make (Hostnet.Device.Udp)
end
