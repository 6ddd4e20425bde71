(* The record sets in one flat array, by open addressing with linear
   probing, at most half full. A record set is never empty and is its
   own key: the name of its first record, compared in wire form. An
   empty slot is [[]], so a probe needs no key array and no bucket, and
   the zone's copy of each name is the one its records hold. *)
type t = {
  origin : Dns_name.t;
  mutable sets : Dns_wire.rr list array;
  mutable entries : int;
  mutable soa : Dns_wire.rr option;
}

let[@inline] home mask (name : Dns_name.t) = Hashtbl.hash (name :> string) land mask

(* Top-level, so that a probe allocates no closure. *)
let rec slot sets mask (name : Dns_name.t) i =
  match Array.unsafe_get sets i with
  | { Dns_wire.name = n; _ } :: _ when not (String.equal (n :> string) (name :> string)) ->
    slot sets mask name ((i + 1) land mask)
  | _ -> i

(* The slot holding [name]'s record set, or the empty one where it would
   go. *)
let[@inline] index t name =
  let mask = Array.length t.sets - 1 in
  slot t.sets mask name (home mask name)

let find t name = Array.unsafe_get t.sets (index t name)

(* Double the array and re-place every set; the names are distinct, so
   each goes to the first empty slot from its home. *)
let grow t =
  let old = t.sets in
  t.sets <- Array.make (2 * Array.length old) [];
  let mask = Array.length t.sets - 1 in
  Array.iter
    (function
      | [] -> ()
      | { Dns_wire.name; _ } :: _ as set ->
        Array.unsafe_set t.sets (slot t.sets mask name (home mask name)) set)
    old

type lookup_result =
  | Answers of Dns_wire.rr list
  | No_data of Dns_wire.rr
  | Nx_domain of Dns_wire.rr
  | Not_authoritative

let create ~origin = { origin; sets = Array.make 64 []; entries = 0; soa = None }

let add t (rr : Dns_wire.rr) =
  (match rr.Dns_wire.rdata with
  | Dns_wire.SOA_data _ when t.soa = None -> t.soa <- Some rr
  | _ -> ());
  let i = index t rr.Dns_wire.name in
  match Array.unsafe_get t.sets i with
  | [] ->
    let i =
      if 2 * (t.entries + 1) > Array.length t.sets then begin
        grow t;
        index t rr.Dns_wire.name
      end
      else i
    in
    Array.unsafe_set t.sets i [ rr ];
    t.entries <- t.entries + 1
  | set -> Array.unsafe_set t.sets i (set @ [ rr ])

let of_zone (z : Zone.t) =
  let t = create ~origin:z.Zone.origin in
  List.iter (add t) z.Zone.records;
  t

let soa_rr t =
  match t.soa with
  | Some rr -> rr
  | None ->
    (* Synthesise a minimal SOA so negative answers are always possible. *)
    {
      Dns_wire.name = t.origin;
      ttl = 300;
      rdata =
        Dns_wire.SOA_data
          {
            mname = Dns_name.cons "ns" t.origin;
            rname = Dns_name.cons "hostmaster" t.origin;
            serial = 1;
            refresh = 7200;
            retry = 1800;
            expire = 1209600;
            minimum = 300;
          };
    }

let matches qtype (rr : Dns_wire.rr) =
  qtype = Dns_wire.ANY || Dns_wire.rdata_qtype rr.Dns_wire.rdata = qtype

let lookup t ~qname ~qtype =
  if not (Dns_name.is_suffix ~suffix:t.origin qname) then Not_authoritative
  else begin
    let rec chase name acc depth =
      match find t name with
      | [] -> if acc = [] then Nx_domain (soa_rr t) else Answers (List.rev acc)
      | rrs -> (
        let wanted = List.filter (matches qtype) rrs in
        if wanted <> [] then Answers (List.rev_append acc wanted)
        else
          match
            List.find_opt
              (fun (r : Dns_wire.rr) ->
                match r.Dns_wire.rdata with Dns_wire.CNAME_data _ -> true | _ -> false)
              rrs
          with
          | Some ({ Dns_wire.rdata = Dns_wire.CNAME_data target; _ } as cname)
            when qtype <> Dns_wire.CNAME && depth < 8 ->
            if Dns_name.is_suffix ~suffix:t.origin target then
              chase target (cname :: acc) (depth + 1)
            else Answers (List.rev (cname :: acc))
          | _ -> if acc = [] then No_data (soa_rr t) else Answers (List.rev acc))
    in
    chase qname [] 0
  end

let entries t = t.entries

let own_name t name = match find t name with { Dns_wire.name = own; _ } :: _ -> own | [] -> name

let origin t = t.origin

let answer t ~id (q : Dns_wire.question) =
  match lookup t ~qname:q.Dns_wire.qname ~qtype:q.Dns_wire.qtype with
  | Answers rrs ->
    {
      Dns_wire.id;
      flags = Dns_wire.response_flags ~aa:true ~rcode:Dns_wire.No_error;
      questions = [ q ];
      answers = rrs;
      authorities = [];
      additionals = [];
    }
  | No_data soa ->
    {
      Dns_wire.id;
      flags = Dns_wire.response_flags ~aa:true ~rcode:Dns_wire.No_error;
      questions = [ q ];
      answers = [];
      authorities = [ soa ];
      additionals = [];
    }
  | Nx_domain soa ->
    {
      Dns_wire.id;
      flags = Dns_wire.response_flags ~aa:true ~rcode:Dns_wire.Name_error;
      questions = [ q ];
      answers = [];
      authorities = [ soa ];
      additionals = [];
    }
  | Not_authoritative ->
    {
      Dns_wire.id;
      flags = Dns_wire.response_flags ~aa:false ~rcode:Dns_wire.Refused;
      questions = [ q ];
      answers = [];
      authorities = [];
      additionals = [];
    }
