(** Simulated PCI-express SSD (the device behind Figure 9).

    Requests are serviced in arrival order through a single queue; each
    request costs a fixed access latency plus size divided by internal
    bandwidth. Contents are backed by real bytes, so a reader gets back
    exactly what was written; sectors never written read as zeros. *)

type t

val create :
  Engine.Sim.t ->
  sectors:int ->
  unit ->
  t

val sector_bytes : t -> int
val sectors : t -> int

exception Out_of_range of string

(** [read t ~sector ~count] returns a fresh buffer of [count] sectors.
    @raise Out_of_range beyond the device end. *)
val read : t -> sector:int -> count:int -> Bytestruct.t Mthread.Promise.t

(** [write t ~sector data] persists whole sectors ([data] length must be a
    sector multiple). *)
val write : t -> sector:int -> Bytestruct.t -> unit Mthread.Promise.t

(** [peek t ~sector ~count] reads contents instantly, bypassing the timing
    model — for layers (the buffer cache) that already hold the data
    resident, and for tests inspecting device state. *)
val peek : t -> sector:int -> count:int -> Bytestruct.t

(** Torn-write failure injection: the next write persists only its first
    [sectors] sectors and then fails — for testing crash safety of layers
    above the device. *)
val inject_torn_write : t -> sectors:int -> unit

exception Torn_write

val reads_issued : t -> int
val writes_issued : t -> int
