type perm = Read_only | Read_write | Read_exec

(* Regions never overlap, so ordering them by base address also orders
   them by end address: slots [0, count) of the parallel arrays hold the
   regions sorted by base, and an overlap check or a lookup is one
   binary search. Parallel arrays rather than an array of records: an
   appliance's table holds about 90 regions for its whole life, and a
   storm holds thousands of tables. Sealing trims the arrays to [count];
   a sealed table grows again only through [map_io]. *)
type t = {
  mutable vas : int array;
  mutable lens : int array;
  mutable perms : perm array;
  mutable labels : string array;
  mutable count : int;
  mutable sealed : bool;
}

exception Sealed_violation of string
exception Wxorx_violation of string
exception Overlap of string

let create () = { vas = [||]; lens = [||]; perms = [||]; labels = [||]; count = 0; sealed = false }

(* Index of the first region ending above [va]: the only one that can
   contain [va], and the lowest-addressed one that a region starting at
   [va] can overlap. [count] when every region ends at or below [va]. *)
let first_ending_above t va =
  let lo = ref 0 and hi = ref t.count in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if t.vas.(mid) + t.lens.(mid) <= va then lo := mid + 1 else hi := mid
  done;
  !lo

let resize t cap =
  let fit a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.count;
    b
  in
  t.vas <- fit t.vas 0;
  t.lens <- fit t.lens 0;
  t.perms <- fit t.perms Read_only;
  t.labels <- fit t.labels ""

(* Insert a region in address order, or raise [Overlap] naming the
   lowest-addressed region it intersects. *)
let insert t ~va ~len ~perm ~label =
  let i = first_ending_above t va in
  if i < t.count && t.vas.(i) < va + len then
    raise
      (Overlap
         (Printf.sprintf "region %s [0x%x,0x%x) overlaps %s [0x%x,0x%x)" label va (va + len)
            t.labels.(i) t.vas.(i)
            (t.vas.(i) + t.lens.(i))));
  if t.count = Array.length t.vas then resize t (max 8 (2 * t.count));
  let shift a = Array.blit a i a (i + 1) (t.count - i) in
  shift t.vas;
  shift t.lens;
  shift t.perms;
  shift t.labels;
  t.vas.(i) <- va;
  t.lens.(i) <- len;
  t.perms.(i) <- perm;
  t.labels.(i) <- label;
  t.count <- t.count + 1

let add_region t ~va ~len ~perm ~label =
  if t.sealed then raise (Sealed_violation ("add_region " ^ label ^ " after seal"));
  if len <= 0 then invalid_arg "Pagetable.add_region: non-positive length";
  insert t ~va ~len ~perm ~label

let set_perm t ~va ~perm =
  if t.sealed then raise (Sealed_violation "set_perm after seal");
  let i = first_ending_above t va in
  if i < t.count && t.vas.(i) = va then t.perms.(i) <- perm else raise Not_found

let seal t =
  (* The invariant is W xor X by construction of [perm]: no single region
     can be both. Verify anyway so a future three-bit encoding cannot
     silently break the property. *)
  for i = 0 to t.count - 1 do
    match t.perms.(i) with Read_only | Read_write | Read_exec -> ()
  done;
  if t.sealed then raise (Sealed_violation "double seal");
  t.sealed <- true;
  resize t t.count

let is_sealed t = t.sealed

let map_io t ~va ~len ~label =
  (* Permitted even when sealed: I/O mappings are always RW-NX and must not
     replace existing pages. *)
  if len <= 0 then invalid_arg "Pagetable.map_io: non-positive length";
  insert t ~va ~len ~perm:Read_write ~label

(* Is [va] inside a region with permission [perm]? *)
let mapped_as t ~va perm =
  let i = first_ending_above t va in
  i < t.count && t.vas.(i) <= va && t.perms.(i) = perm

let can_exec t ~va = mapped_as t ~va Read_exec
let can_write t ~va = mapped_as t ~va Read_write
