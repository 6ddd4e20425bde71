type key = string * int

type t = {
  table : (key, Bytestruct.t) Hashtbl.t;
  mutable hits : int;
  mutable misses : int;
}

let create () = { table = Hashtbl.create 1024; hits = 0; misses = 0 }

(* Keyed on the length-prefixed labels (the wire form less its root byte),
   not the dotted form: ["a.b"; "c"] and ["a"; "b"; "c"] both print as
   "a.b.c" but are different names. Decoded labels are at most 63 bytes. *)
let key ~qname ~qtype =
  let b = Bytes.create (Dns_name.encoded_length qname - 1) in
  let _ =
    List.fold_left
      (fun pos label ->
        let n = String.length label in
        Bytes.set b pos (Char.chr n);
        Bytes.blit_string label 0 b (pos + 1) n;
        pos + 1 + n)
      0 qname
  in
  (Bytes.unsafe_to_string b, Dns_wire.qtype_to_int qtype)

let find t ~qname ~qtype =
  match Hashtbl.find_opt t.table (key ~qname ~qtype) with
  | Some encoded ->
    t.hits <- t.hits + 1;
    (* Copy: the caller patches the id, and cached bytes must stay clean. *)
    Some (Bytestruct.copy encoded)
  | None ->
    t.misses <- t.misses + 1;
    None

let add t ~qname ~qtype encoded = Hashtbl.replace t.table (key ~qname ~qtype) (Bytestruct.copy encoded)

let hits t = t.hits
let misses t = t.misses
let entries t = Hashtbl.length t.table
