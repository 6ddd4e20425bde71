(** Linux-style kernel buffer cache layered over a {!Disk} — the
    conventional storage path of Figure 9 (paper §3.5.2).

    Reads go through a fixed-size LRU page cache: a hit costs a
    kernel-to-userspace copy; a miss fetches from the device, inserts, and
    then copies. The copy bandwidth cap is what makes buffered throughput
    plateau (~300 MB/s in the paper) while direct I/O tracks raw device
    speed. Mirage omits this layer entirely, each library choosing its own
    caching policy. *)

type t

val create :
  Engine.Sim.t ->
  ?cache_pages:int ->
  Disk.t ->
  t

(** Cached read of [count] sectors (sector granularity; internally page
    aligned). *)
val read : t -> sector:int -> count:int -> Bytestruct.t Mthread.Promise.t

(** Write-through write (writes invalidate affected cache pages). *)
val write : t -> sector:int -> Bytestruct.t -> unit Mthread.Promise.t

val hits : t -> int
val misses : t -> int
val resident_pages : t -> int

(** Is the page with index [page] (sector / sectors per page) cached? *)
val resident : t -> page:int -> bool
