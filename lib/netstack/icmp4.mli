(** ICMPv4: echo request/reply — enough for the paper's flood-ping latency
    microbenchmark (§4.1.3). Replies are generated automatically. *)

type t

(** [dom] enables the per-echo vCPU charge ([icmp_echo_extra_ns]) that
    reproduces the flood-ping latency gap of §4.1.3. *)
val create : Engine.Sim.t -> ?dom:Xensim.Domain.t -> Ipv4.t -> t

(** [ping t ~dst ~seq] sends an echo request with 56 payload bytes and
    resolves with the round-trip time in ns. *)
val ping : t -> dst:Ipaddr.t -> seq:int -> int Mthread.Promise.t

val echo_requests_answered : t -> int
val echo_replies_received : t -> int

(** Packets dropped for bad ICMP checksum. *)
val checksum_failures : t -> int
