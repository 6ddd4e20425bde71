(* The /metrics exposition endpoint, applied once to whatever stack the
   appliance's backend carries. It lives in its own unit so that only
   appliances that mount it link it. *)

let mount h ~port =
  let dom = Appliance.Handle.domain h in
  (match Appliance.Handle.device h with
  | Device_sig.Stack ((module S), stack) ->
    let module E = Uhttp.Metrics_export.Make (S) in
    E.mount dom.Xensim.Domain.sim ~dom ~port stack);
  Appliance.Handle.advertise h ~port
