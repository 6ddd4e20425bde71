(* Device signatures (paper §3, Fig. 2): the module types that separate
   application libraries from the device backends they run on. Protocol
   servers (`Uhttp.Server`, `Dns.Server`, `Baseline.Appliances`) are
   functors over these signatures; the configure step — the backend value
   in a `Core.Boot_spec` (`Core.Xen_direct`, `Posix_direct` or
   `Posix_sockets`), and the functor application where a server is used,
   over the {!stack} that backend carries — picks the implementation: the
   type-safe unikernel netstack over a PV ring or tuntap device, or the
   `Hostnet` shim that models host-kernel sockets for the POSIX developer
   targets. Application code is identical at every target. *)

(* Canonical connection exceptions. Backends raise these (the netstack
   rebinds its historical exceptions to them), so functor bodies can match
   on [Connection_reset] without knowing which backend is underneath. *)
exception Connection_refused
exception Connection_reset

(** A byte-stream endpoint: the read/write half of an established
    connection, independent of which transport produced it. *)
module type FLOW = sig
  type flow
  type ipaddr

  (** Next chunk of the stream; [None] at end-of-stream. The chunk may
      alias a pooled driver page: it is valid until the next [read] on
      the same flow, or until the connection finishes closing (both
      directions shut down, or a reset), whichever comes first. Copy
      what must outlive that, and whatever is passed on to a [write]:
      a write keeps its buffer queued until the peer acknowledges it. *)
  val read : flow -> Bytestruct.t option Mthread.Promise.t

  (** Queue bytes for transmission, blocking while the send buffer is
      full. Fails with {!Connection_reset} after a reset. *)
  val write : flow -> Bytestruct.t -> unit Mthread.Promise.t

  (** Half-close our direction. *)
  val close : flow -> unit Mthread.Promise.t

  (** Abortive close. *)
  val abort : flow -> unit

  val remote : flow -> ipaddr * int

  (** The address's 32-bit value, so that a functor body can hash or
      order addresses by value whatever their representation. *)
  val ipaddr_to_int : ipaddr -> int
end

(** Connection-oriented transport: listeners and active opens on top of
    {!FLOW}. *)
module type TCP = sig
  type t

  include FLOW

  (** [listen t ~port f] accepts connections on [port], spawning [f] per
      established flow. *)
  val listen : t -> port:int -> (flow -> unit Mthread.Promise.t) -> unit

  val unlisten : t -> port:int -> unit

  (** Active open. Fails with {!Connection_refused} when the peer rejects
      the connection. *)
  val connect : t -> dst:ipaddr -> dst_port:int -> flow Mthread.Promise.t
end

(** Datagram transport with per-port listeners. *)
module type UDP = sig
  type t
  type ipaddr

  type callback =
    src:ipaddr -> src_port:int -> dst_port:int -> payload:Bytestruct.t -> unit

  (** [listen t ~port f] registers [f] for datagrams to [port]; replaces
      any previous listener. *)
  val listen : t -> port:int -> callback -> unit

  val unlisten : t -> port:int -> unit

  val sendto :
    t -> src_port:int -> dst:ipaddr -> dst_port:int -> Bytestruct.t -> unit Mthread.Promise.t
end

(** A network stack bundling both transports over one address. *)
module type STACK = sig
  type t
  type ipaddr

  module Tcp : TCP with type ipaddr = ipaddr
  module Udp : UDP with type ipaddr = ipaddr

  val tcp : t -> Tcp.t
  val udp : t -> Udp.t
  val address : t -> ipaddr
end

(** A running stack packed with its implementation: what a backend hands
    an appliance, so that code serving on it applies its functor to [S]
    once, whatever the backend:
    [match s with Stack ((module S), v) -> let module H = F (S.Tcp) in ...]. *)
type stack = Stack : (module STACK with type t = 'a) * 'a -> stack

(** Monotonic simulated time. *)
module type CLOCK = sig
  val now_ns : unit -> int
end

(** Deterministic randomness for application-level choices. *)
module type RANDOM = sig
  val int : int -> int
end

(** Buffered reading over any {!FLOW}: lines and counted blocks. The
    channel-iteratee bridge between packet streams and typed protocol
    streams (paper §3.5) that the HTTP parser reads from.
    Backend-agnostic: [create] closes over the flow's [read], so one
    reader implementation serves every transport. *)
module Reader : sig
  type t

  val create : read:(unit -> Bytestruct.t option Mthread.Promise.t) -> t

  (** Next CRLF- (or bare-LF-) terminated line, without the terminator;
      [None] at end-of-stream. *)
  val line : t -> string option Mthread.Promise.t

  (** Exactly [n] bytes; [None] if the stream ends first. *)
  val exactly : t -> int -> string option Mthread.Promise.t
end = struct
  let ( >>= ) = Mthread.Promise.bind
  let return = Mthread.Promise.return

  (* A flat byte window [start, fill): chunks are blitted in directly
     (no intermediate string), lines and blocks are found by scanning in
     place and extracted with a single [Bytes.sub_string] each — the one
     mandatory copy at the application boundary, since stack chunks may
     alias pooled driver pages that are only valid until the next read
     (or until the transport discards the flow). *)
  type t = {
    read : unit -> Bytestruct.t option Mthread.Promise.t;
    mutable buf : bytes;
    mutable start : int;
    mutable fill : int;
    mutable eof : bool;
  }

  let create ~read = { read; buf = Bytes.create 4096; start = 0; fill = 0; eof = false }

  let available t = t.fill - t.start

  (* Room for [n] more bytes: slide the live region to the front first,
     and only reallocate (doubling) when the buffer is genuinely full. *)
  let reserve t n =
    if t.fill + n > Bytes.length t.buf then begin
      let live = available t in
      if live + n > Bytes.length t.buf then begin
        let cap = ref (Bytes.length t.buf * 2) in
        while live + n > !cap do
          cap := !cap * 2
        done;
        let nb = Bytes.create !cap in
        Bytes.blit t.buf t.start nb 0 live;
        t.buf <- nb
      end
      else Bytes.blit t.buf t.start t.buf 0 live;
      t.start <- 0;
      t.fill <- live
    end

  let refill t =
    t.read () >>= function
    | None ->
      t.eof <- true;
      return false
    | Some chunk ->
      let n = Bytestruct.length chunk in
      reserve t n;
      Bytestruct.blit chunk 0 (Bytestruct.of_bytes t.buf) t.fill n;
      t.fill <- t.fill + n;
      return true

  (* Consume [n] bytes, returning all but the trailing [drop]
     (terminators are consumed but never copied). *)
  let take_drop t n drop =
    let s = Bytes.sub_string t.buf t.start (n - drop) in
    t.start <- t.start + n;
    if t.start = t.fill then begin
      t.start <- 0;
      t.fill <- 0
    end;
    s

  let take t n = take_drop t n 0

  let rec line t =
    let rec find i =
      if i >= t.fill then -1 else if Bytes.unsafe_get t.buf i = '\n' then i else find (i + 1)
    in
    let i = find t.start in
    if i >= 0 then begin
      let crlf = i > t.start && Bytes.unsafe_get t.buf (i - 1) = '\r' in
      return (Some (take_drop t (i - t.start + 1) (if crlf then 2 else 1)))
    end
    else if t.eof then return None
    else refill t >>= fun ok -> if ok then line t else return None

  let rec exactly t n =
    if available t >= n then return (Some (take t n))
    else if t.eof then return None
    else refill t >>= fun ok -> if ok then exactly t n else return None
end
