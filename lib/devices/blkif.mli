(** The Xen split block driver. Same structure as {!Netif}: one shared
    ring, grant references for data, an event channel pair.

    Block devices share the Ring abstraction with network devices and use
    the same I/O pages (paper §3.5.2); all writes are direct — there is no
    built-in cache, caching being a library concern in Mirage.

    Simplification vs. real blkfront: a request references its whole data
    buffer through one grant rather than up to 11 page segments, so large
    requests need not be segmented. This preserves the Figure 9 behaviour
    (request size is what amortises device access latency). *)

type t

val connect :
  Xensim.Hypervisor.t ->
  dom:Xensim.Domain.t ->
  backend_dom:Xensim.Domain.t ->
  disk:Blockdev.Disk.t ->
  unit ->
  t

val sectors : t -> int

(** [read t ~sector ~count] returns a fresh buffer of [count] sectors,
    blocking while the ring is full. *)
val read : t -> sector:int -> count:int -> Bytestruct.t Mthread.Promise.t

(** [write t ~sector data] persists whole sectors; resolves when the
    backend acknowledges the write as durable. *)
val write : t -> sector:int -> Bytestruct.t -> unit Mthread.Promise.t

val requests_issued : t -> int
