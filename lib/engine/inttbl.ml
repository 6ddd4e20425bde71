(* Open addressing with linear probing over two parallel arrays, [keys]
   and [vals], whose capacity is a power of two at least twice the number
   of bindings. A slot is free when its value is the private [free]
   block, so every [int] is a valid key. A key's home slot is the top
   bits of its product with 2^63 / phi (Fibonacci hashing): one multiply
   and one shift, and every bit of the key reaches the index, so
   sequential keys (grant refs, event-channel ports) land apart and keys
   that differ only in their high bits (a MAC as an int ends in a
   constant byte) do not collide. Removal shifts the rest of the probe
   chain back, so there are no tombstones and a miss stops at the first
   free slot.

   Values are stored as [Obj.t] so that the value array is never a flat
   float array and a free slot needs no value of type ['a]. *)

type 'a t = {
  mutable keys : int array;
  mutable vals : Obj.t array;
  mutable size : int;
  mutable shift : int;  (* 63 - log2 capacity *)
  initial : int;  (* the capacity [create] chose, which [reset] restores *)
}

let free = Obj.repr (ref ())

let capacity_for n =
  let rec go c = if c >= 2 * n then c else go (2 * c) in
  go 8

let log2 c =
  let rec go b = if 1 lsl b >= c then b else go (b + 1) in
  go 0

let make cap = (Array.make cap 0, Array.make cap free, 63 - log2 cap)

let create n =
  let initial = capacity_for n in
  let keys, vals, shift = make initial in
  { keys; vals; size = 0; shift; initial }

let length t = t.size

let[@inline] home shift k = (k * 0x4F1BBCDCBFA53E0B) lsr shift

(* The probe loops are top-level functions of all they use: a local
   recursive function would be a closure allocated on every call. *)

let rec probe keys vals mask k i =
  if Array.unsafe_get vals i == free then -1
  else if Array.unsafe_get keys i = k then i
  else probe keys vals mask k ((i + 1) land mask)

(* The slot holding [k], or -1. The home slot, which holds almost every
   key found, is probed inline. *)
let[@inline] index t k =
  let keys = t.keys and vals = t.vals and i = home t.shift k in
  if Array.unsafe_get vals i == free then -1
  else if Array.unsafe_get keys i = k then i
  else probe keys vals (Array.length keys - 1) k ((i + 1) land (Array.length keys - 1))

let find t k =
  let i = index t k in
  if i < 0 then raise Not_found else Obj.obj (Array.unsafe_get t.vals i)

let find_opt t k =
  let i = index t k in
  if i < 0 then None else Some (Obj.obj (Array.unsafe_get t.vals i))

let rec free_slot vals mask i =
  if Array.unsafe_get vals i == free then i else free_slot vals mask ((i + 1) land mask)

(* Place a key known to be absent. *)
let insert keys vals shift k v =
  let i = free_slot vals (Array.length vals - 1) (home shift k) in
  Array.unsafe_set keys i k;
  Array.unsafe_set vals i v

let resize t cap =
  let keys, vals, shift = make cap in
  Array.iteri (fun i v -> if v != free then insert keys vals shift t.keys.(i) v) t.vals;
  t.keys <- keys;
  t.vals <- vals;
  t.shift <- shift

let replace t k v =
  let i = index t k in
  if i >= 0 then Array.unsafe_set t.vals i (Obj.repr v)
  else begin
    if 2 * (t.size + 1) > Array.length t.keys then resize t (2 * Array.length t.keys);
    insert t.keys t.vals t.shift k (Obj.repr v);
    t.size <- t.size + 1
  end

(* Backward-shift deletion: walk the chain after the hole and move back
   each entry whose home slot does not lie cyclically in (hole, j], so
   every remaining key stays reachable from its home without a gap. *)
let rec shift_back keys vals mask shift hole j =
  let j = (j + 1) land mask in
  let v = Array.unsafe_get vals j in
  if v == free then Array.unsafe_set vals hole free
  else begin
    let kj = Array.unsafe_get keys j in
    if (j - home shift kj) land mask >= (j - hole) land mask then begin
      Array.unsafe_set keys hole kj;
      Array.unsafe_set vals hole v;
      shift_back keys vals mask shift j j
    end
    else shift_back keys vals mask shift hole j
  end

let remove t k =
  let i = index t k in
  if i >= 0 then begin
    shift_back t.keys t.vals (Array.length t.keys - 1) t.shift i i;
    t.size <- t.size - 1
  end

let reset t =
  if Array.length t.keys = t.initial then Array.fill t.vals 0 t.initial free
  else begin
    let keys, vals, shift = make t.initial in
    t.keys <- keys;
    t.vals <- vals;
    t.shift <- shift
  end;
  t.size <- 0

let fold f t acc =
  let keys = t.keys and vals = t.vals in
  let acc = ref acc in
  for i = 0 to Array.length keys - 1 do
    let v = Array.unsafe_get vals i in
    if v != free then acc := f (Array.unsafe_get keys i) (Obj.obj v) !acc
  done;
  !acc
