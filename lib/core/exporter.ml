(* The /metrics exposition endpoint, applied per backend. It lives in its
   own unit so that only appliances that mount it link it. *)

module Direct = Uhttp.Metrics_export.Make (Netstack.Device)
module Sockets = Uhttp.Metrics_export.Make (Hostnet.Device)

let mount h ~port =
  let dom = Appliance.Handle.domain h in
  let sim = dom.Xensim.Domain.sim in
  (match Appliance.Handle.hostnet h with
  | None -> ignore (Direct.mount sim ~dom ~port (Appliance.Handle.stack h))
  | Some s -> ignore (Sockets.mount sim ~dom ~port s));
  Appliance.Handle.advertise h ~port
