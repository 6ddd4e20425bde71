(* Keyed on the name's wire form, so a name holding a dotted label is a
   different key from the name split at that dot, and a probe hashes the
   name it was given instead of building a key. A name's entry holds one
   response per qtype code asked for, nearly always just one. Responses
   are kept as immutable strings. *)
module Tbl = Hashtbl.Make (struct
  type t = Dns_name.t

  let equal (a : t) (b : t) = String.equal (a :> string) (b :> string)
  let hash (s : t) = Hashtbl.hash (s :> string)
end)

type t = {
  table : (int * string) list Tbl.t;
  mutable entries : int;
  mutable hits : int;
  mutable misses : int;
}

let create () = { table = Tbl.create 1024; entries = 0; hits = 0; misses = 0 }

(* The qtype as it goes on the wire. *)
let code qtype = Dns_wire.qtype_to_int qtype land 0xffff

let rec response code = function
  | [] -> raise Not_found
  | (c, r) :: rest -> if c = code then r else response code rest

let find t ~qname ~qtype =
  match response (code qtype) (Tbl.find t.table qname) with
  | encoded ->
    t.hits <- t.hits + 1;
    (* A fresh copy: the caller patches the id. *)
    Some (Bytestruct.of_string encoded)
  | exception Not_found ->
    t.misses <- t.misses + 1;
    None

let add t ~qname ~qtype encoded =
  let code = code qtype in
  let others = try Tbl.find t.table qname with Not_found -> [] in
  if not (List.mem_assoc code others) then t.entries <- t.entries + 1;
  Tbl.replace t.table qname ((code, Bytestruct.to_string encoded) :: List.remove_assoc code others)

let hits t = t.hits
let misses t = t.misses
let entries t = t.entries
