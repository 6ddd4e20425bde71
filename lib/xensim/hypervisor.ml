type t = {
  sim : Engine.Sim.t;
  stats : Xstats.t;
  evtchn : Evtchn.t;
  gnttab : Gnttab.t;
  seal_patch : bool;
  (* Domain table keyed by id: boot storms create and destroy 10⁴+
     domains, so lookup/destroy must not scan.  Reports that need a
     stable order use [domains], which sorts by id — ids are handed out
     monotonically, so that matches creation order. *)
  domain_table : (int, Domain.t) Hashtbl.t;
  mutable next_domid : int;
}

exception Seal_unsupported

let create ?(seal_patch = true) sim =
  let stats = Xstats.create () in
  {
    sim;
    stats;
    evtchn = Evtchn.create ~sim ~stats;
    gnttab = Gnttab.create ~stats;
    seal_patch;
    domain_table = Hashtbl.create 64;
    next_domid = 0;
  }

let create_domain t ~name ~mem_mib ~platform ?(vcpus = 1) () =
  let id = t.next_domid in
  t.next_domid <- id + 1;
  let d = Domain.create ~sim:t.sim ~stats:t.stats ~id ~name ~mem_mib ~platform ~vcpus () in
  Hashtbl.replace t.domain_table id d;
  if Trace.enabled () then
    Trace.emit ~dom:id ~cat:Trace.Boot
      ~payload:[ ("name", Trace.String name); ("mem_mib", Trace.Int mem_mib) ]
      "domain.create";
  d

let domain t id = Hashtbl.find_opt t.domain_table id

let domains t =
  let ds = Hashtbl.fold (fun _ d acc -> d :: acc) t.domain_table [] in
  List.sort (fun a b -> compare a.Domain.id b.Domain.id) ds

let seal t d =
  if not t.seal_patch then raise Seal_unsupported;
  Domain.hypercall d ~name:"seal";
  Pagetable.seal d.Domain.pagetable;
  t.stats.Xstats.seals <- t.stats.Xstats.seals + 1;
  if Trace.enabled () then Trace.emit ~dom:d.Domain.id ~cat:Trace.Boot "domain.seal"

let destroy ?(exit_code = -1) t d =
  Domain.shutdown d ~exit_code;
  (* Crash postmortem: a positive exit code is an abnormal guest exit
     (0 is clean, -1 is an external kill/teardown) — freeze the flight
     bundle while the domain's ring is still intact. *)
  if Trace.Flight.enabled () && exit_code > 0 then
    Trace.Flight.trip ~dom:d.Domain.id
      ~payload:[ ("name", Trace.String d.Domain.name); ("exit_code", Trace.Int exit_code) ]
      ~reason:"domain.exit" ();
  (* Guard against a stale handle to an id that has since been reused:
     only remove the table entry if it is this very domain. *)
  (match Hashtbl.find_opt t.domain_table d.Domain.id with
  | Some x when x == d ->
    Hashtbl.remove t.domain_table d.Domain.id;
    (* Teardown audit: every observability plane forgets the domain, or
       metric read callbacks pin its devices and stack and retired
       domains leave stale profiler/flight rows. *)
    Trace.drop_dom d.Domain.id
  | _ -> ())

let domain_count t = Hashtbl.length t.domain_table
