type perm = Read_only | Read_write | Read_exec

type region = { va : int; len : int; perm : perm; label : string }

type t = { mutable regions : region list; mutable sealed : bool }

exception Sealed_violation of string
exception Wxorx_violation of string
exception Overlap of string

let create () = { regions = []; sealed = false }

let overlaps a b = a.va < b.va + b.len && b.va < a.va + a.len

let check_overlap t r =
  match List.find_opt (overlaps r) t.regions with
  | Some existing ->
    raise
      (Overlap
         (Printf.sprintf "region %s [0x%x,0x%x) overlaps %s [0x%x,0x%x)" r.label r.va
            (r.va + r.len) existing.label existing.va (existing.va + existing.len)))
  | None -> ()

let add_region t ~va ~len ~perm ~label =
  if t.sealed then raise (Sealed_violation ("add_region " ^ label ^ " after seal"));
  if len <= 0 then invalid_arg "Pagetable.add_region: non-positive length";
  let r = { va; len; perm; label } in
  check_overlap t r;
  t.regions <- r :: t.regions

let set_perm t ~va ~perm =
  if t.sealed then raise (Sealed_violation "set_perm after seal");
  let rec update = function
    | [] -> raise Not_found
    | r :: rest when r.va = va -> { r with perm } :: rest
    | r :: rest -> r :: update rest
  in
  t.regions <- update t.regions

let seal t =
  (* The invariant is W xor X by construction of [perm]: no single region
     can be both. Verify anyway so a future three-bit encoding cannot
     silently break the property. *)
  List.iter
    (fun r ->
      match r.perm with
      | Read_only | Read_write | Read_exec -> ())
    t.regions;
  if t.sealed then raise (Sealed_violation "double seal");
  t.sealed <- true

let is_sealed t = t.sealed

let map_io t ~va ~len ~label =
  (* Permitted even when sealed: I/O mappings are always RW-NX and must not
     replace existing pages. *)
  if len <= 0 then invalid_arg "Pagetable.map_io: non-positive length";
  let r = { va; len; perm = Read_write; label } in
  check_overlap t r;
  t.regions <- r :: t.regions

let find_region t ~va = List.find_opt (fun r -> va >= r.va && va < r.va + r.len) t.regions

let can_exec t ~va =
  match find_region t ~va with Some { perm = Read_exec; _ } -> true | Some _ | None -> false

let can_write t ~va =
  match find_region t ~va with Some { perm = Read_write; _ } -> true | Some _ | None -> false

