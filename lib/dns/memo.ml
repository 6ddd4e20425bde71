(* Keyed on the name's wire form followed by the 2-byte qtype; a name
   holding a dotted label is a different key from the name split at that
   dot. Responses are kept as immutable strings. *)
module Tbl = Hashtbl.Make (struct
  type t = string

  let equal = String.equal
  let hash (s : t) = Hashtbl.hash s
end)

type t = { table : string Tbl.t; mutable hits : int; mutable misses : int }

let create () = { table = Tbl.create 1024; hits = 0; misses = 0 }

let key ~qname ~qtype =
  let s = (qname : Dns_name.t :> string) in
  let n = String.length s in
  let b = Bytes.create (n + 2) in
  Bytes.blit_string s 0 b 0 n;
  Bytes.set_uint16_be b n (Dns_wire.qtype_to_int qtype land 0xffff);
  Bytes.unsafe_to_string b

let find t ~qname ~qtype =
  match Tbl.find_opt t.table (key ~qname ~qtype) with
  | Some encoded ->
    t.hits <- t.hits + 1;
    (* A fresh copy: the caller patches the id. *)
    Some (Bytestruct.of_string encoded)
  | None ->
    t.misses <- t.misses + 1;
    None

let add t ~qname ~qtype encoded = Tbl.replace t.table (key ~qname ~qtype) (Bytestruct.to_string encoded)
let hits t = t.hits
let misses t = t.misses
let entries t = Tbl.length t.table
