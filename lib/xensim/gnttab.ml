type grant_ref = int

exception Invalid_grant of grant_ref
exception Grant_busy of grant_ref
exception Permission_denied of grant_ref

(* [page] is lazy so a grant can promise storage without materialising
   it: netfront posts hundreds of receive buffers per vif as credit, and
   in a 10^4-domain storm most are never filled.  Eager pages would pin
   ~2 MiB per vif (511 slots x 4 KiB) for the vif's whole lifetime; the
   thunk allocates only when the peer actually maps or copies. *)
type entry = {
  dom : int;
  peer : int;
  writable : bool;
  page : Bytestruct.t Lazy.t;
  mutable mapped_by : int list;
}

type t = { stats : Xstats.t; entries : (grant_ref, entry) Hashtbl.t; mutable next_ref : int }

let c_map = Trace.counter "gnttab.map"
let c_copy = Trace.counter "gnttab.copy"

let trace_op op ~by r =
  if Trace.enabled () then begin
    Trace.incr (if op = "gnttab.map" then c_map else c_copy);
    Trace.emit ~dom:by ~cat:Trace.Gnttab ~payload:[ ("gref", Trace.Int r) ] op
  end

let create ~stats = { stats; entries = Hashtbl.create 128; next_ref = 8 }

let get t r =
  match Hashtbl.find_opt t.entries r with Some e -> e | None -> raise (Invalid_grant r)

let grant_lazy t ~dom ~peer ~writable page =
  let r = t.next_ref in
  t.next_ref <- t.next_ref + 1;
  Hashtbl.replace t.entries r { dom; peer; writable; page; mapped_by = [] };
  r

let grant_access t ~dom ~peer ~writable page =
  grant_lazy t ~dom ~peer ~writable (Lazy.from_val page)

let grant_access_lazy t ~dom ~peer ~writable alloc =
  grant_lazy t ~dom ~peer ~writable (Lazy.from_fun alloc)

let map t ~by r =
  let e = get t r in
  if e.peer <> by then raise (Permission_denied r);
  e.mapped_by <- by :: e.mapped_by;
  t.stats.Xstats.grant_maps <- t.stats.Xstats.grant_maps + 1;
  trace_op "gnttab.map" ~by r;
  Lazy.force e.page

let map_rw t ~by r =
  let e = get t r in
  if not e.writable then raise (Permission_denied r);
  map t ~by r

let unmap t ~by r =
  let e = get t r in
  let rec remove_one = function
    | [] -> []
    | d :: rest when d = by -> rest
    | d :: rest -> d :: remove_one rest
  in
  e.mapped_by <- remove_one e.mapped_by

let copy t ~by r ~dst =
  let e = get t r in
  if e.peer <> by then raise (Permission_denied r);
  t.stats.Xstats.grant_copies <- t.stats.Xstats.grant_copies + 1;
  trace_op "gnttab.copy" ~by r;
  let page = Lazy.force e.page in
  let len = min (Bytestruct.length page) (Bytestruct.length dst) in
  Bytestruct.blit page 0 dst 0 len

let copy_to t ~by r ~src =
  let e = get t r in
  if e.peer <> by || not e.writable then raise (Permission_denied r);
  t.stats.Xstats.grant_copies <- t.stats.Xstats.grant_copies + 1;
  trace_op "gnttab.copy" ~by r;
  let page = Lazy.force e.page in
  let len = min (Bytestruct.length page) (Bytestruct.length src) in
  Bytestruct.blit src 0 page 0 len

let end_access t r =
  let e = get t r in
  if e.mapped_by <> [] then raise (Grant_busy r);
  Hashtbl.remove t.entries r

let active_grants t = Hashtbl.length t.entries

