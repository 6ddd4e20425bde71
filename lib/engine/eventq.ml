type handle = {
  time : int;
  seq : int;
  action : unit -> unit;
  (* Physical index in the owner's heap array, maintained by every swap;
     -1 once fired or removed. Cancellation uses it to delete the entry
     in O(log n) instead of leaving a corpse to skip at pop time — a
     steady arm/cancel pattern (RTO timers, session timeouts) would
     otherwise pile dead entries into the array and churn it through
     grow/shrink cycles, and that garbage lands on whichever datapath
     hop happens to push next. *)
  mutable pos : int;
  owner : t;
}

and t = {
  mutable heap : handle array;
  mutable size : int;
  mutable next_seq : int;
}

(* The placeholder for empty slots needs an owner of its own; tie the
   knot with a throwaway queue that never schedules anything. *)
let rec dummy = { time = 0; seq = 0; action = (fun () -> ()); pos = -1; owner = dummy_q }

and dummy_q = { heap = [||]; size = 0; next_seq = 0 }

let initial_capacity = 64

let create () = { heap = Array.make initial_capacity dummy; size = 0; next_seq = 0 }

let before a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

let swap t i j =
  let a = t.heap.(i) and b = t.heap.(j) in
  t.heap.(i) <- b;
  b.pos <- i;
  t.heap.(j) <- a;
  a.pos <- j

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if before t.heap.(i) t.heap.(parent) then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.size && before t.heap.(l) t.heap.(!smallest) then smallest := l;
  if r < t.size && before t.heap.(r) t.heap.(!smallest) then smallest := r;
  if !smallest <> i then begin
    swap t i !smallest;
    sift_down t !smallest
  end

let grow t =
  let bigger = Array.make (2 * Array.length t.heap) dummy in
  Array.blit t.heap 0 bigger 0 t.size;
  t.heap <- bigger

(* Return memory after mass cancellation (ACKed retransmits, reaped
   domains): halve while under a quarter full. The 4x hysteresis against
   [grow]'s doubling keeps a heap hovering at one size from thrashing
   allocations in either direction. *)
let maybe_shrink t =
  let cap = ref (Array.length t.heap) in
  while !cap > initial_capacity && t.size * 4 <= !cap do
    cap := !cap / 2
  done;
  if !cap < Array.length t.heap then begin
    let smaller = Array.make !cap dummy in
    Array.blit t.heap 0 smaller 0 t.size;
    t.heap <- smaller
  end

let push t ~time action =
  let h = { time; seq = t.next_seq; action; pos = t.size; owner = t } in
  t.next_seq <- t.next_seq + 1;
  if t.size = Array.length t.heap then grow t;
  t.heap.(t.size) <- h;
  t.size <- t.size + 1;
  sift_up t (t.size - 1);
  h

(* True deletion: move the last entry into the vacated slot and restore
   the heap property around it. Pop order among survivors is a pure
   function of their (time, seq) keys, so when a removal happens cannot
   change what pops next — determinism is preserved. *)
let remove t h =
  let i = h.pos in
  h.pos <- -1;
  t.size <- t.size - 1;
  if i < t.size then begin
    let moved = t.heap.(t.size) in
    t.heap.(i) <- moved;
    moved.pos <- i;
    t.heap.(t.size) <- dummy;
    sift_down t i;
    sift_up t i
  end
  else t.heap.(t.size) <- dummy;
  maybe_shrink t

let cancel h = if h.pos >= 0 then remove h.owner h

let pop t =
  if t.size = 0 then None
  else begin
    let top = t.heap.(0) in
    top.pos <- -1;
    t.size <- t.size - 1;
    if t.size > 0 then begin
      let moved = t.heap.(t.size) in
      t.heap.(0) <- moved;
      moved.pos <- 0;
      t.heap.(t.size) <- dummy;
      sift_down t 0
    end
    else t.heap.(t.size) <- dummy;
    Some (top.time, top.action)
  end

let peek_time t = if t.size = 0 then None else Some t.heap.(0).time

let length t = t.size

let capacity t = Array.length t.heap
