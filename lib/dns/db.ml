(* Keyed on the name's wire form itself: one string hash and one memcmp
   per probe. *)
module Tbl = Hashtbl.Make (struct
  type t = Dns_name.t

  let equal = Dns_name.equal
  let hash (n : t) = Hashtbl.hash (n :> string)
end)

type t = { origin : Dns_name.t; table : Dns_wire.rr list Tbl.t; mutable soa : Dns_wire.rr option }

type lookup_result =
  | Answers of Dns_wire.rr list
  | No_data of Dns_wire.rr
  | Nx_domain of Dns_wire.rr
  | Not_authoritative

let create ~origin = { origin; table = Tbl.create 64; soa = None }

let add t (rr : Dns_wire.rr) =
  (match rr.Dns_wire.rdata with
  | Dns_wire.SOA_data _ when t.soa = None -> t.soa <- Some rr
  | _ -> ());
  let existing = match Tbl.find_opt t.table rr.Dns_wire.name with Some l -> l | None -> [] in
  Tbl.replace t.table rr.Dns_wire.name (existing @ [ rr ])

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
      match Tbl.find_opt t.table name with
      | None -> if acc = [] then Nx_domain (soa_rr t) else Answers (List.rev acc)
      | Some rrs -> (
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

let entries t = Tbl.length t.table

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
