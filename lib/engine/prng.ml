(* The 64-bit state lives in an 8-byte buffer rather than a mutable
   [int64] field: a field stores a pointer to a boxed [Int64], so every
   update would allocate one. Loads and stores through the [%caml_bytes]
   primitives are unboxed, and each draw below does its mixing inline
   (the [step] helper is forced inline), so the intermediate [int64]s
   stay in registers and [int] and [bool] allocate nothing. Native byte
   order is fine: the state never leaves the process. *)
type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9E3779B97F4A7C15L

let of_state s =
  let t = Bytes.create 8 in
  set64 t 0 s;
  t

let create ~seed () = of_state (Int64.of_int seed)

(* SplitMix64: advance the state by the golden gamma and mix it. *)
let[@inline always] step t =
  let z = Int64.add (get64 t 0) golden_gamma in
  set64 t 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let next_int64 t = step t

let split t = of_state (step t)

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  let mask = Int64.shift_right_logical (step t) 1 in
  Int64.to_int (Int64.rem mask (Int64.of_int bound))

let float t bound =
  (* 53 random bits scaled into [0, 1) then multiplied by the bound. *)
  let bits = Int64.shift_right_logical (step t) 11 in
  Int64.to_float bits /. 9007199254740992.0 *. bound

let bool t = Int64.logand (step t) 1L = 1L

let exponential t ~mean =
  let u = float t 1.0 in
  (* Guard against log 0. *)
  let u = if u <= 0.0 then epsilon_float else u in
  -.mean *. log u

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
