type t = {
  platform : Platform.t;
  mutable minor_used : int;  (* every allocated byte survives its minor collection *)
  mutable live_bytes : int;
  mutable major_capacity : int;
  mutable next_major_at : int;  (* live threshold triggering a major cycle *)
  mutable minor_collections : int;
  mutable major_collections : int;
}

(* Calibration:
   - bump-pointer allocation ~15 ns per object (word writes + header);
   - minor scan at 0.25 ns/byte of survivor, scaled by the platform's
     gc_scan_factor (contiguous extent heaps scan cheaper);
   - growing the major heap costs page-table work: 4 kB at a time under the
     malloc model (each page tracked; PV guests pay a hypercall-mediated
     update), one 2 MB superpage at a time under the extent model;
   - a major cycle marks+sweeps the whole live set at 0.35 ns/byte. *)
let alloc_base_ns = 15
let minor_scan_ns_per_byte = 0.25
let major_scan_ns_per_byte = 0.35
let major_growth_headroom = 2.0

let page = 4096
let superpage = 2 * 1024 * 1024

let minor_bytes = 2048 * 1024

let create ~platform () =
  {
    platform;
    minor_used = 0;
    live_bytes = 0;
    major_capacity = 0;
    next_major_at = 8 * 1024 * 1024;
    minor_collections = 0;
    major_collections = 0;
  }

let page_map_cost_ns t ~bytes =
  match t.platform.Platform.alloc_model with
  | Platform.Extent ->
    (* One mapping operation per 2 MB superpage. *)
    let chunks = (bytes + superpage - 1) / superpage in
    chunks * 2_500
  | Platform.Malloc ->
    let pages = (bytes + page - 1) / page in
    let per_page =
      if t.platform.Platform.syscall_ns = 0 then 700 (* unikernel, direct PT writes *)
      else if t.platform.Platform.virtualized then 1_200 (* PV guest: batched hypercalls *)
      else 500 (* native mmap *)
    in
    pages * per_page

let grow_major t ~need =
  if t.major_capacity < need then begin
    let granule = match t.platform.Platform.alloc_model with Platform.Extent -> superpage | Platform.Malloc -> 256 * 1024 in
    let target = max need (int_of_float (float_of_int t.major_capacity *. 1.5)) in
    let target = (target + granule - 1) / granule * granule in
    let grown = target - t.major_capacity in
    t.major_capacity <- target;
    page_map_cost_ns t ~bytes:grown
  end
  else 0

let scan_cost t ~bytes ~ns_per_byte =
  int_of_float (ns_per_byte *. float_of_int bytes *. t.platform.Platform.gc_scan_factor)

let minor_collect t =
  t.minor_collections <- t.minor_collections + 1;
  let survivors = t.minor_used in
  let cost = 4_000 + scan_cost t ~bytes:survivors ~ns_per_byte:minor_scan_ns_per_byte in
  t.live_bytes <- t.live_bytes + survivors;
  t.minor_used <- 0;
  let cost = cost + grow_major t ~need:t.live_bytes in
  let cost =
    if t.live_bytes >= t.next_major_at then begin
      t.major_collections <- t.major_collections + 1;
      t.next_major_at <- int_of_float (float_of_int t.live_bytes *. major_growth_headroom);
      cost + scan_cost t ~bytes:t.live_bytes ~ns_per_byte:major_scan_ns_per_byte
    end
    else cost
  in
  cost

let alloc t ~bytes =
  let gc = if t.minor_used + bytes > minor_bytes then minor_collect t else 0 in
  t.minor_used <- t.minor_used + bytes;
  alloc_base_ns + gc

let live_bytes t = t.live_bytes
let major_capacity_bytes t = t.major_capacity
let minor_collections t = t.minor_collections
let major_collections t = t.major_collections
