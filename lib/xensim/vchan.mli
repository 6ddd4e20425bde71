(** vchan: the fast shared-memory inter-VM byte stream (paper §3.5.1).

    The server grants a set of contiguous ring pages to the client; once
    connected the two sides exchange data purely through shared memory,
    notifying over an event channel only when the peer has declared itself
    asleep — "each side checks for outstanding data before blocking,
    reducing the number of hypervisor calls". Tests assert exactly that
    property via {!Xstats}. *)

type endpoint

exception Closed

(** [connect hv ~server ~client ~ring_bytes ()] establishes a duplex
    channel, returning [(server_endpoint, client_endpoint)].
    [ring_bytes] is the per-direction buffer capacity (rounded up to whole
    4 kB pages). *)
val connect :
  Hypervisor.t ->
  server:Domain.t ->
  client:Domain.t ->
  ?ring_bytes:int ->
  unit ->
  endpoint * endpoint

(** [write ep buf] enqueues all of [buf], blocking while the ring is full.
    @raise Closed if the peer has closed. *)
val write : endpoint -> Bytestruct.t -> unit Mthread.Promise.t

(** [read ep ~max] returns 1..max available bytes, blocking when empty;
    resolves [None] at end-of-stream. *)
val read : endpoint -> max:int -> Bytestruct.t option Mthread.Promise.t

val close : endpoint -> unit
