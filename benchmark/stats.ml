(* The benchmark's own order statistics. Latency percentiles are exact
   nearest-rank values over every recorded sample, not the library's
   log-linear histograms, so a later change to [Trace.Hist] or
   [Engine.Stats] cannot move a reported number. *)

(* A growable array of integer samples (virtual nanoseconds). *)
module Samples = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 4096 0; n = 0 }

  let add s v =
    if s.n = Array.length s.a then begin
      let b = Array.make (2 * s.n) 0 in
      Array.blit s.a 0 b 0 s.n;
      s.a <- b
    end;
    s.a.(s.n) <- v;
    s.n <- s.n + 1

  let sorted s =
    let b = Array.sub s.a 0 s.n in
    Array.sort compare b;
    b
end

(* Nearest rank: the smallest sample with at least [p]% of the samples
   at or below it. 0 for an empty array. *)
let nearest_rank sorted p =
  let n = Array.length sorted in
  if n = 0 then 0
  else
    let r = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (r - 1)))

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* First and third quartiles, computed as Python's
   [statistics.quantiles(xs, n=4)] does (the "exclusive" method), so the
   spreads printed here match the ones a Python harness computes from
   the same values. With one value both quartiles are that value. *)
let quartiles xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then (nan, nan)
  else if n = 1 then (a.(0), a.(0))
  else
    let q i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = float_of_int ((i * m) - (j * 4)) in
      ((a.(j - 1) *. (4. -. delta)) +. (a.(j) *. delta)) /. 4.
    in
    (q 1, q 3)
