type grant_ref = int

exception Invalid_grant of grant_ref
exception Grant_busy of grant_ref
exception Permission_denied of grant_ref

(* A grant either shares a page that exists ([grant_access]) or promises
   one ([grant_access_deferred]): netfront posts tens to hundreds of
   receive credits per vif, and in a 10^4-domain storm most are never
   filled.  A deferred entry holds the [unfilled] sentinel until the peer
   first maps or copies, then [fill key] supplies the page.  [fill] is
   one closure per device, shared by all its credits, so a deferred
   grant costs exactly what an eager one does: this record and its
   table entry. *)
type entry = {
  dom : int;
  peer : int;
  writable : bool;
  mutable page : Bytestruct.t;
  fill : int -> Bytestruct.t;
  key : int;
  mutable mapped_by : int list;
}

type t = { stats : Xstats.t; entries : entry Engine.Inttbl.t; mutable next_ref : int }

let trace_op op ~by r =
  if Trace.enabled () then Trace.emit ~dom:by ~cat:Trace.Gnttab ~payload:[ ("gref", Trace.Int r) ] op

let create ~stats = { stats; entries = Engine.Inttbl.create 128; next_ref = 8 }

let get t r =
  match Engine.Inttbl.find t.entries r with e -> e | exception Not_found -> raise (Invalid_grant r)

let unfilled = Bytestruct.create 0
let no_fill _ = unfilled

let grant t ~dom ~peer ~writable page fill key =
  let r = t.next_ref in
  t.next_ref <- t.next_ref + 1;
  Engine.Inttbl.replace t.entries r { dom; peer; writable; page; fill; key; mapped_by = [] };
  r

let grant_access t ~dom ~peer ~writable page = grant t ~dom ~peer ~writable page no_fill 0

let grant_access_deferred t ~dom ~peer ~writable ~fill key =
  grant t ~dom ~peer ~writable unfilled fill key

let page e =
  if e.page == unfilled then e.page <- e.fill e.key;
  e.page

let map t ~by r =
  let e = get t r in
  if e.peer <> by then raise (Permission_denied r);
  e.mapped_by <- by :: e.mapped_by;
  t.stats.Xstats.grant_maps <- t.stats.Xstats.grant_maps + 1;
  trace_op "gnttab.map" ~by r;
  page e

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

let copy_to t ~by r ~src =
  let e = get t r in
  if e.peer <> by || not e.writable then raise (Permission_denied r);
  t.stats.Xstats.grant_copies <- t.stats.Xstats.grant_copies + 1;
  trace_op "gnttab.copy" ~by r;
  let page = page e in
  let len = min (Bytestruct.length page) (Bytestruct.length src) in
  Bytestruct.blit src 0 page 0 len

let end_access t r =
  let e = get t r in
  if e.mapped_by <> [] then raise (Grant_busy r);
  Engine.Inttbl.remove t.entries r

let active_grants t = Engine.Inttbl.length t.entries

