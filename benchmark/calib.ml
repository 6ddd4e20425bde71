(* Host time on a shared machine, corrected for the machine's speed.

   On a shared host (the baseline machine: 2 vCPUs of a Xeon with a
   105 MiB L3), other tenants' load slows the work by up to 1.7x, in
   periods of about a minute, so raw CPU seconds of one repetition move
   by far more than any change worth detecting. While the engine runs, every 20 ms
   of wall time, the benchmark times a fixed chunk of work: 20 000
   random read-modify-writes over a 32 MiB array outside the OCaml heap.
   The chunk neither allocates nor touches the simulator's data, so its
   time follows the machine's speed, not the simulator's heap or GC, and
   the simulator's counts repeat exactly with it running. A repetition's
   host times are its CPU seconds with the chunks taken out, multiplied
   by [reference_s] over the repetition's mean chunk time: the seconds
   the work would take on a machine that runs a chunk in [reference_s],
   about the baseline machine's time when it is quiet. *)

type ints = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

let reference_s = 0.0003
let every_s = 0.02
let size = 1 lsl 22 (* 32 MiB: above L2, inside a server's L3 *)
let array : ints Lazy.t = lazy (Bigarray.Array1.init Bigarray.int Bigarray.c_layout size Fun.id)

(* Float state lives in a flat float array, so updating it never
   allocates: the number of chunks depends on the clock, and an
   allocation per chunk would make the GC counts differ between
   repetitions of one draw. *)
let last = 0
let spent_s = 1
let state = Float.Array.make 2 0.
let chunks = ref 0
let lcg = ref 12345

(* Build the array before anything is timed. *)
let prepare () =
  ignore (Lazy.force array);
  Float.Array.set state last (Unix.gettimeofday ())

let chunk (a : ints) =
  let s = ref !lcg in
  for i = 0 to 20_000 do
    s := ((!s * 1103515245) + 12345) land 0x3fffffff;
    let j = !s land (size - 1) in
    Bigarray.Array1.unsafe_set a j (Bigarray.Array1.unsafe_get a j + i)
  done;
  lcg := !s

(* Called between engine steps: runs a chunk when one is due. *)
let tick () =
  let t0 = Unix.gettimeofday () in
  if t0 -. Float.Array.get state last >= every_s then begin
    chunk (Lazy.force array);
    let t1 = Unix.gettimeofday () in
    Float.Array.set state spent_s (Float.Array.get state spent_s +. (t1 -. t0));
    Float.Array.set state last t1;
    incr chunks
  end

(* Wall seconds spent in chunks so far. *)
let spent () = Float.Array.get state spent_s

let mean_chunk_s () = if !chunks = 0 then reference_s else spent () /. float_of_int !chunks

(* What a CPU second measured in this repetition is worth at the
   reference speed. *)
let speed () = reference_s /. mean_chunk_s ()
