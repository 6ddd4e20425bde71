type extent = { base : int; len : int }

exception Out_of_extents

let chunk = Layout.superpage_bytes

(* Free holes kept sorted by base address for coalescing. *)
type t = { base : int; size : int; mutable holes : extent list }

let create ~base ~size =
  if base mod chunk <> 0 || size mod chunk <> 0 then
    invalid_arg "Extent_allocator.create: base and size must be 2MB-aligned";
  { base; size; holes = [ { base; len = size } ] }

let round_up bytes = max chunk ((bytes + chunk - 1) / chunk * chunk)

let alloc t ~bytes =
  let want = round_up bytes in
  let rec take = function
    | [] -> raise Out_of_extents
    | h :: rest when h.len >= want ->
      let allocated = { base = h.base; len = want } in
      let remainder =
        if h.len = want then rest else { base = h.base + want; len = h.len - want } :: rest
      in
      (allocated, remainder)
    | h :: rest ->
      let allocated, remainder = take rest in
      (allocated, h :: remainder)
  in
  let allocated, holes = take t.holes in
  t.holes <- holes;
  allocated

let free t (e : extent) =
  if e.base < t.base || e.base + e.len > t.base + t.size || e.base mod chunk <> 0 then
    invalid_arg "Extent_allocator.free: extent outside arena";
  let rec insert : extent list -> extent list = function
    | [] -> [ e ]
    | h :: rest when e.base < h.base -> e :: h :: rest
    | h :: rest -> h :: insert rest
  in
  let rec coalesce : extent list -> extent list = function
    | a :: b :: rest when a.base + a.len = b.base -> coalesce ({ base = a.base; len = a.len + b.len } :: rest)
    | a :: rest -> a :: coalesce rest
    | [] -> []
  in
  t.holes <- coalesce (insert t.holes)

let free_bytes t = List.fold_left (fun acc h -> acc + h.len) 0 t.holes
let used_bytes t = t.size - free_bytes t
