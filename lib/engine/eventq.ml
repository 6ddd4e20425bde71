(* A 4-ary min-heap over three parallel arrays: slot [i] holds the event
   whose key is [(times.(i), seqs.(i))] and whose handle is
   [handles.(i)]. The keys sit unboxed in [int array]s, so a comparison
   reads two adjacent words and never dereferences a handle, and
   storing a key costs no write barrier. Four children per node halve
   the depth of a binary heap, and a node's four children are adjacent
   words, usually in one cache line. Entries move by hole sifting: the entry being placed is held
   in registers while the entries it passes shift one level each, so a
   level costs one store per array instead of a swap. *)

type handle = {
  action : unit -> unit;
  (* Slot in the owner's arrays, maintained on every move; -1 once fired
     or removed. Cancellation uses it to delete the entry in O(log n)
     instead of leaving a corpse to skip at pop time — a steady
     arm/cancel pattern (RTO timers, session timeouts) would otherwise
     pile dead entries into the arrays, and the garbage would land on
     whichever datapath hop happens to push next. *)
  mutable pos : int;
  owner : t;
}

and t = {
  mutable times : int array;
  mutable seqs : int array;
  mutable handles : handle array;
  mutable size : int;
  mutable next_seq : int;
}

(* The placeholder for empty slots needs an owner of its own; tie the
   knot with a throwaway queue that never schedules anything. *)
let rec dummy = { action = (fun () -> ()); pos = -1; owner = dummy_q }

and dummy_q = { times = [||]; seqs = [||]; handles = [||]; size = 0; next_seq = 0 }

let initial_capacity = 64

let create () =
  {
    times = Array.make initial_capacity 0;
    seqs = Array.make initial_capacity 0;
    handles = Array.make initial_capacity dummy;
    size = 0;
    next_seq = 0;
  }

let resize t cap =
  let times = Array.make cap 0 and seqs = Array.make cap 0 and handles = Array.make cap dummy in
  Array.blit t.times 0 times 0 t.size;
  Array.blit t.seqs 0 seqs 0 t.size;
  Array.blit t.handles 0 handles 0 t.size;
  t.times <- times;
  t.seqs <- seqs;
  t.handles <- handles

(* Return memory after mass cancellation (ACKed retransmits, reaped
   domains): halve while at most an eighth full. The 8x hysteresis
   against [push]'s doubling is wider than the swing of a loaded
   simulator's pending count (bulk TCP moves between about 600 and 2500
   events as windows open and RTO timers are cancelled), so a queue
   breathing across that range keeps its arrays instead of reallocating
   them on every swing. *)
let maybe_shrink t =
  let cap = ref (Array.length t.times) in
  while !cap > initial_capacity && t.size * 8 <= !cap do
    cap := !cap / 2
  done;
  if !cap < Array.length t.times then resize t !cap

let set t i time seq h =
  Array.unsafe_set t.times i time;
  Array.unsafe_set t.seqs i seq;
  Array.unsafe_set t.handles i h;
  h.pos <- i

let move t ~src ~dst =
  set t dst (Array.unsafe_get t.times src) (Array.unsafe_get t.seqs src)
    (Array.unsafe_get t.handles src)

(* Place [(time, seq, h)] at or above the hole at slot [i]. Every slot
   index here is below [t.size], which is at most the array length. *)
let sift_up t i time seq h =
  let i = ref i and placed = ref false in
  while not !placed do
    if !i = 0 then placed := true
    else begin
      let p = (!i - 1) lsr 2 in
      let pt = Array.unsafe_get t.times p in
      if time < pt || (time = pt && seq < Array.unsafe_get t.seqs p) then begin
        move t ~src:p ~dst:!i;
        i := p
      end
      else placed := true
    end
  done;
  set t !i time seq h

(* Place [(time, seq, h)] at or below the hole at slot [i]. *)
let sift_down t i time seq h =
  let times = t.times and seqs = t.seqs and size = t.size in
  let i = ref i and placed = ref false in
  while not !placed do
    let first = (4 * !i) + 1 in
    if first >= size then placed := true
    else begin
      (* the least of up to four children *)
      let c = ref first in
      let ct = ref (Array.unsafe_get times first) and cs = ref (Array.unsafe_get seqs first) in
      let last = if first + 3 < size then first + 3 else size - 1 in
      for k = first + 1 to last do
        let kt = Array.unsafe_get times k in
        if kt < !ct || (kt = !ct && Array.unsafe_get seqs k < !cs) then begin
          c := k;
          ct := kt;
          cs := Array.unsafe_get seqs k
        end
      done;
      if !ct < time || (!ct = time && !cs < seq) then begin
        move t ~src:!c ~dst:!i;
        i := !c
      end
      else placed := true
    end
  done;
  set t !i time seq h

let push t ~time action =
  let h = { action; pos = -1; owner = t } in
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  if t.size = Array.length t.times then resize t (2 * t.size);
  t.size <- t.size + 1;
  sift_up t (t.size - 1) time seq h;
  h

(* Keys drawn ahead of the push, for an entry that waits in a run queue
   (see [Sim.lane_at]) before its handle enters the heap. *)
let reserve_seq t =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  seq

let handle t action = { action; pos = -1; owner = t }

let push_keyed t h ~time ~seq =
  if h.pos >= 0 || h.owner != t then invalid_arg "Eventq.push_keyed: handle is queued or foreign";
  if t.size = Array.length t.times then resize t (2 * t.size);
  t.size <- t.size + 1;
  sift_up t (t.size - 1) time seq h

(* Detach the last entry and re-place it at the hole [i] left by a
   removed entry. *)
let fill_hole t i =
  let last = t.size - 1 in
  t.size <- last;
  let h = Array.unsafe_get t.handles last in
  Array.unsafe_set t.handles last dummy;
  if i < last then begin
    let time = Array.unsafe_get t.times last and seq = Array.unsafe_get t.seqs last in
    (* A hole in the middle can need the entry to travel either way;
       only one direction ever moves anything. *)
    let above =
      i > 0
      &&
      let p = (i - 1) lsr 2 in
      let pt = Array.unsafe_get t.times p in
      time < pt || (time = pt && seq < Array.unsafe_get t.seqs p)
    in
    if above then sift_up t i time seq h else sift_down t i time seq h
  end

(* True deletion. Pop order among survivors is a pure function of their
   (time, seq) keys, so when a removal happens cannot change what pops
   next — determinism is preserved. *)
let cancel h =
  let i = h.pos in
  if i >= 0 then begin
    let t = h.owner in
    h.pos <- -1;
    fill_hole t i;
    maybe_shrink t
  end

let min_time t =
  if t.size = 0 then invalid_arg "Eventq.min_time: empty queue";
  Array.unsafe_get t.times 0

let take t =
  if t.size = 0 then invalid_arg "Eventq.take: empty queue";
  let top = Array.unsafe_get t.handles 0 in
  top.pos <- -1;
  fill_hole t 0;
  top.action

let length t = t.size

let capacity t = Array.length t.times
