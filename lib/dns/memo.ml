(* Open addressing with linear probing over three parallel arrays:
   [names], [codes] and [responses], whose capacity is a power of two
   at most three quarters full. Slot [i] holds the response to
   (names.(i), codes.(i)), so a name asked with two qtypes has two slots
   and each slot is three words, with no bucket, list cell or tuple
   around it. A slot is free when its name is the private [free] string,
   which no decoder or zone can produce (a zero-length label), and which
   is compared physically, so the root name [""] is an ordinary key.
   Names are compared in wire form, so a name holding a dotted label is
   a different key from the name split at that dot. Entries are never
   removed, so there are no tombstones and a miss stops at the first free
   slot. Responses are kept as immutable strings. *)

type t = {
  mutable names : Dns_name.t array;
  mutable codes : int array;
  mutable responses : string array;
  mutable entries : int;
  mutable hits : int;
  mutable misses : int;
}

let free : Dns_name.t = Dns_name.unsafe_of_string (Bytes.to_string (Bytes.make 1 '\000'))
let initial_capacity = 16

let make t cap =
  t.names <- Array.make cap free;
  t.codes <- Array.make cap 0;
  t.responses <- Array.make cap ""

let create () =
  let t = { names = [||]; codes = [||]; responses = [||]; entries = 0; hits = 0; misses = 0 } in
  make t initial_capacity;
  t

(* The qtype as it goes on the wire. *)
let code qtype = Dns_wire.qtype_to_int qtype land 0xffff

(* The qtype code seeds the name's hash, so one name's qtypes land apart. *)
let[@inline] home mask (name : Dns_name.t) code = Hashtbl.seeded_hash code (name :> string) land mask

(* The probe loops are top-level functions of all they use: a local
   recursive function would be a closure allocated on every call. *)

(* The slot holding (name, code), or the free slot where it would go. *)
let rec slot names codes mask (name : Dns_name.t) code i =
  let n = Array.unsafe_get names i in
  if n == free || (Array.unsafe_get codes i = code && String.equal (n :> string) (name :> string))
  then i
  else slot names codes mask name code ((i + 1) land mask)

let[@inline] index t name code =
  let mask = Array.length t.names - 1 in
  slot t.names t.codes mask name code (home mask name code)

let find t ~qname ~qtype =
  let i = index t qname (code qtype) in
  if Array.unsafe_get t.names i == free then begin
    t.misses <- t.misses + 1;
    None
  end
  else begin
    t.hits <- t.hits + 1;
    (* A fresh copy: the caller patches the id. *)
    Some (Bytestruct.of_string (Array.unsafe_get t.responses i))
  end

let rec free_slot names mask i =
  if Array.unsafe_get names i == free then i else free_slot names mask ((i + 1) land mask)

(* Double the arrays and re-place every entry; the keys are distinct, so
   each goes to the first free slot from its home. *)
let grow t =
  let names = t.names and codes = t.codes and responses = t.responses in
  make t (2 * Array.length names);
  let mask = Array.length t.names - 1 in
  for j = 0 to Array.length names - 1 do
    let n = Array.unsafe_get names j in
    if n != free then begin
      let c = Array.unsafe_get codes j in
      let i = free_slot t.names mask (home mask n c) in
      Array.unsafe_set t.names i n;
      Array.unsafe_set t.codes i c;
      Array.unsafe_set t.responses i (Array.unsafe_get responses j)
    end
  done

let add t ~qname ~qtype encoded =
  let code = code qtype in
  let i = index t qname code in
  if Array.unsafe_get t.names i != free then
    Array.unsafe_set t.responses i (Bytestruct.to_string encoded)
  else begin
    let i =
      if 4 * (t.entries + 1) > 3 * Array.length t.names then begin
        grow t;
        index t qname code
      end
      else i
    in
    Array.unsafe_set t.names i qname;
    Array.unsafe_set t.codes i code;
    Array.unsafe_set t.responses i (Bytestruct.to_string encoded);
    t.entries <- t.entries + 1
  end

let hits t = t.hits
let misses t = t.misses
let entries t = t.entries
