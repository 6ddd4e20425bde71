(** [mount h ~port] makes a running appliance scrapable: it serves the
    domain's [Trace.Metrics] registry as Prometheus text at [/metrics] on
    [port], over the stack its backend carries ({!Appliance.Handle.device}:
    its own netstack, or host sockets on {!Posix_sockets}), and advertises the endpoint in the bridge's service
    directory for monitor discovery ({!Appliance.Handle.advertise}), so
    [shutdown] and [drain] withdraw it. An appliance calls it from its
    [main], before it starts its own servers. *)
val mount : Appliance.Handle.t -> port:int -> unit
