(** Pooled, ownership-tracked packet buffers — the zero-copy datapath's
    currency (paper §5: collapsing the I/O path is the library-OS win).

    A [t] is a fixed-size buffer with an explicit reference count, drawn
    through a device's [pool]. The driver that allocates a buffer owns
    one reference; every layer that needs the bytes to outlive its own
    stack frame takes another with {!retain} and gives it back with
    {!release}. When the count reaches zero the buffer returns to the
    freelist — nothing on the steady-state path allocates.

    Every buffer is {!buf_bytes} long. Storage lives in one freelist,
    shared by every pool; a pool is accounting only (its buffers out and
    their high-water mark). A buffer is created only when an [alloc]
    finds the shared freelist empty, so the process holds the high-water
    mark of buffers in flight across all devices, and an idle appliance
    holds none: what one device releases is the next buffer any device
    allocates. Freelist recycling never allocates.

    Ownership at each hop is documented in DESIGN.md ("Datapath buffer
    ownership"). The short version: the netfront owns RX buffers and
    publishes the current one ambiently ({!with_current}) while the
    synchronous RX chain runs; any layer that defers work over the
    payload calls {!retain_current} instead of copying; the app-facing
    boundary releases on the next read, or when the flow leaves the
    table. *)

type t
type pool

exception Double_free
(** Raised by {!release} on a buffer whose count already reached zero,
    and by {!retain} on a freed buffer: both are ownership bugs. *)

(** {1 Pools} *)

(** The size of every buffer: 2048 bytes, one wire frame plus room. *)
val buf_bytes : int

(** [create_pool ()] makes an empty pool drawing on the shared
    freelist. *)
val create_pool : unit -> pool

(** The pool's high-water mark of outstanding buffers minus those out
    now: what a private freelist would hold. *)
val free_buffers : pool -> int

(** Buffers out of the pool with a non-zero reference count. *)
val outstanding : pool -> int

(** Arena footprint: the pool's high-water mark of outstanding buffers
    times {!buf_bytes} (grows, never shrinks). [0] until the first
    [alloc]. *)
val bytes_reserved : pool -> int

(** {1 Ownership} *)

(** [alloc pool] takes a buffer off the shared freelist (creating one if
    it is empty) with a reference count of 1, charged to [pool].
    Contents are not zeroed. *)
val alloc : pool -> t

(** [retain pb] adds a reference. @raise Double_free if [pb] is free. *)
val retain : t -> unit

(** [release pb] drops a reference; at zero the buffer leaves its pool's
    outstanding count and returns to the shared freelist.
    @raise Double_free if [pb] was already free. *)
val release : t -> unit

val refs : t -> int

(** {1 Views} *)

(** Full-buffer view sharing the pktbuf's storage. *)
val storage : t -> Bytestruct.t

(** [view pb ~off ~len] — a window into the buffer, sharing storage. *)
val view : t -> off:int -> len:int -> Bytestruct.t

(** {1 The ambient current packet}

    The netfront wraps the synchronous RX delivery chain in
    [with_current pb]; downstream layers that would otherwise copy a
    payload to survive a deferred callback call [retain_current] and
    keep the view instead. Outside an RX delivery [current] is [None]
    and callers fall back to copying — plain-buffer senders (tests,
    host-socket flows) keep today's semantics. *)

val with_current : t -> (unit -> 'a) -> 'a
val current : unit -> t option

(** [retain_current ()] retains and returns the ambient buffer, or
    [None] when the bytes are not pool-backed. *)
val retain_current : unit -> t option
