(** TCP (paper §4.1.3): the full connection lifecycle, retransmission with
    Jacobson/Karn RTO estimation, fast retransmit and recovery, New Reno
    congestion control, and window scaling — in type-safe OCaml over
    {!Ipv4}.

    Flow control is real: the advertised window is the receive buffer
    minus bytes delivered to the application stream but not yet read, so a
    stalled reader closes the window, and a persist timer (RFC 1122
    4.2.2.17) probes a zero window with 1-byte segments on exponential
    backoff so lost window-update ACKs cannot deadlock either side.
    Window updates are gated by the RFC 793 §3.9 SND.WL1/WL2 recency
    check, and the out-of-order reassembly list is capped at 128 segments
    (furthest-seq evicted first).

    Divergences from deployed stacks, chosen for deterministic simulation:
    every data segment is acknowledged immediately (no delayed-ACK timer),
    and TIME_WAIT lasts 2 s (2 x a 1 s MSL). *)

type t

type flow

exception Connection_refused
exception Connection_reset

(** [create sim ?dom ip] attaches a TCP engine to an IPv4 layer. When [dom]
    is given, per-segment processing is charged to that domain's vCPU
    using its platform's [tcp_tx_extra_ns]/[tcp_rx_extra_ns]. *)
val create : Engine.Sim.t -> ?dom:Xensim.Domain.t -> Ipv4.t -> t

(** [listen t ~port f] accepts connections on [port], spawning [f] per
    established flow. *)
val listen : t -> port:int -> (flow -> unit Mthread.Promise.t) -> unit

val unlisten : t -> port:int -> unit

(** Active open. The promise fails with {!Connection_refused} on RST and
    [Mthread.Promise.Timeout] when SYN retransmission gives up. *)
val connect : t -> dst:Ipaddr.t -> dst_port:int -> flow Mthread.Promise.t

(** {1 Flow I/O} *)

(** [read fl] blocks for the next chunk; [None] at end-of-stream. The
    chunk may be a zero-copy view over a pooled driver page and is
    valid until the next [read] on the same flow, or until the
    connection finishes closing (entering TIME_WAIT, the final ACK of
    LAST_ACK, or a reset or timeout), whichever comes first — consume
    or copy it before either. A flow lingering 2 MSL in TIME_WAIT holds
    no pool page: chunks not yet read when the connection finishes
    closing are copied out of the pool and stay readable. *)
val read : flow -> Bytestruct.t option Mthread.Promise.t

(** [write fl buf] queues bytes for transmission, blocking while the send
    buffer is full. Ownership of [buf] transfers to the stack: the bytes
    are segmented by reference where possible, so the caller must not
    mutate [buf] after this call. Fails with {!Connection_reset} after a
    RST. *)
val write : flow -> Bytestruct.t -> unit Mthread.Promise.t

(** Half-close our direction (sends FIN after queued data). *)
val close : flow -> unit Mthread.Promise.t

(** Abortive close (RST). *)
val abort : flow -> unit

val remote : flow -> Ipaddr.t * int
val local_port : flow -> int
val state_name : flow -> string

val bytes_received : flow -> int
val cwnd : flow -> int

(** {1 Socket-table introspection}

    The `ss`-style view of the engine: one row per bound listener and one
    per live flow, with the state machine's actual state and the queue,
    congestion and retransmission detail an operator would ask a running
    appliance for. Pure reads over state the engine already maintains —
    nothing on the segment path changes. *)

type sock_info = {
  si_state : string;  (** ["LISTEN"], ["ESTABLISHED"], … (see {!state_name}) *)
  si_local_port : int;
  si_peer : (Ipaddr.t * int) option;  (** [None] for LISTEN rows *)
  si_recv_q : int;  (** bytes delivered to the stream, not yet read *)
  si_send_q : int;  (** bytes accepted from the writer, not yet acked *)
  si_cwnd : int;  (** congestion window, bytes *)
  si_ssthresh : int;  (** slow-start threshold, bytes *)
  si_srtt_ns : int;  (** smoothed RTT (0 until first sample) *)
  si_rto_ns : int;  (** current retransmission timeout *)
  si_retx : int;  (** segments this flow has retransmitted *)
  si_age_ns : int;  (** virtual time since the flow was created *)
}

(** All rows, sorted by (local port, peer) so output is deterministic. *)
val sockets : t -> sock_info list

(** {1 Engine statistics} *)

val segments_sent : t -> int
val retransmissions : t -> int
val fast_retransmits : t -> int
val rto_fires : t -> int

(** Zero-window probes sent by the persist timer. *)
val persist_probes : t -> int

(** Out-of-order segments evicted because the reassembly list hit its cap. *)
val ooo_evictions : t -> int

val active_flows : t -> int
