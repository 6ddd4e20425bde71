(** OpenFlow controllers (paper §4.3, Figure 11).

    One protocol engine — handshake, echo, packet-in dispatch — is shared;
    a {!profile} supplies the per-read and per-message vCPU costs that
    model each implementation's dispatch structure:

    - {!mirage_profile}: the OCaml appliance (costs from our stack).
    - {!nox_profile}: NOX destiny-fast, optimised C++ — lowest per-message
      cost, negligible per-read overhead; drains whole connection buffers,
      which is the source of its short-term unfairness under batch load.
    - {!maestro_profile}: Java — JVM allocation and wakeup overheads give
      a high fixed cost per read that only batching can amortise, which is
      why its single-outstanding-message throughput collapses in the
      paper. *)

type profile = {
  prof_name : string;
  per_read_fixed_ns : int;
  per_msg_ns : int;
}

val mirage_profile : profile
val nox_profile : profile
val maestro_profile : profile

type t

(** [create sim ~tcp ~profile ()] listens on the OpenFlow port (6633)
    and answers every switch's packet-ins as a learning switch. *)
val create : Engine.Sim.t -> ?dom:Xensim.Domain.t -> tcp:Netstack.Tcp.t -> profile:profile -> unit -> t

val packet_ins : t -> int
val switches_connected : t -> int
