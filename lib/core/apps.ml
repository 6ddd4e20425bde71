(* The configure step (paper §3, Fig. 2) for the servers every kind of
   caller names: each is its protocol functor applied to the unikernel
   netstack in a one-line unit of its own, and [Net] only aliases them,
   so naming [Core.Apps.Net.Dns] links the DNS server and neither the
   HTTP units nor this module. Every other application is applied by the
   code that uses it: the fleet's balancer, monitor, orchestrator and
   load generator in [Fleet], httperf, the baseline servers and the
   monitor in bench/ and test/, the servers test_targets runs on each
   backend's stack. *)

module Net = struct
  module Http = Net_http
  module Http_client = Net_http_client
  module Dns = Net_dns
end
