(** Deterministic pseudo-random number generator (SplitMix64).

    Every stochastic element of the simulation (packet loss, workload
    inter-arrival times, address-space randomisation) draws from an explicit
    [Prng.t] so experiments are exactly reproducible from a seed. *)

type t

(** [create ~seed ()] returns a fresh generator. Equal seeds yield equal
    streams. *)
val create : seed:int -> unit -> t

(** [split t] derives an independent generator from [t], advancing [t]. *)
val split : t -> t

(** Next raw 64-bit value. *)
val next_int64 : t -> int64

(** [int t bound] returns a uniform integer in [0, bound).
    @raise Invalid_argument if [bound <= 0]. *)
val int : t -> int -> int

(** [float t bound] returns a uniform float in [0, bound). *)
val float : t -> float -> float

(** [bool t] returns a fair coin flip. *)
val bool : t -> bool

(** [exponential t ~mean] samples an exponential distribution. *)
val exponential : t -> mean:float -> float

(** [shuffle t arr] permutes [arr] in place (Fisher-Yates). *)
val shuffle : t -> 'a array -> unit
