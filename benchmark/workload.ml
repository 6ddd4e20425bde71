(* What a workload hands the repetition harness ([Rep]). [setup] builds
   the world from the seed and runs the warm-up; [measure] runs the
   measured phase, stepping the engine through the given [World.drive]. *)

type outcome = {
  attempted : int;  (* operations whose outcome was checked *)
  failed : int;  (* of those, failed or wrong *)
  bytes : int;  (* application payload delivered by the correct ones *)
  window_ns : int;  (* the virtual time the operations were counted over *)
  latencies : Stats.Samples.t;  (* virtual ns, one per correct operation *)
  layer : (string * float) list;  (* workload-specific per-layer values *)
}

type instance = {
  world : World.t;
  server : Xensim.Domain.t;  (* whose vCPU utilisation and wait are reported *)
  measure : World.drive -> outcome;
}

type t = {
  name : string;
  setup : seed:int -> scale:float -> instance;
      (* [scale] shrinks every phase (the smoke test runs 1/20) *)
}

let scaled scale ns = max 1 (int_of_float (float_of_int ns *. scale))
