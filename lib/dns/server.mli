(** Authoritative DNS server engines over any {!Device_sig.UDP} transport.

    One real answering path (decode, database lookup, encode / memo) is
    shared by all engines; what differs is (a) whether memoisation is on
    and (b) the per-query virtual-CPU cost model, which encodes each
    baseline's documented algorithmic structure (see the calibration
    comments in the implementation). This is how Figure 10's six curves
    are produced from one correct implementation plus explicit models of
    BIND's and NSD's processing costs.

    The server is a functor over the transport, applied where it is used
    ([Core.Apps.Net.Dns] over the unikernel netstack). *)

type engine =
  | Mirage of { memoize : bool }  (** the real Mirage appliance path *)
  | Bind_like  (** general-purpose database, per-query feature checks *)
  | Nsd_like  (** precompiled answer set, minimal per-query work *)

(** The per-query vCPU cost the engine charges, exposed for the analytical
    crosscheck in the benchmark harness. *)
val query_cost_ns : engine -> zone_entries:int -> platform:Platform.t -> memo_hit:bool -> int

module Make (U : Device_sig.UDP) : sig
  type t

  val create :
    Engine.Sim.t ->
    ?dom:Xensim.Domain.t ->
    udp:U.t ->
    ?port:int ->
    db:Db.t ->
    engine:engine ->
    unit ->
    t

  (** Graceful drain: close the listener; an answer already in flight
      still goes out (the response path holds the socket, not the
      listener). Resolves immediately; idempotent. *)
  val drain : t -> unit Mthread.Promise.t

  val queries_served : t -> int
  val decode_failures : t -> int
  val memo : t -> Memo.t option

  (** {1 Client} (tests, examples, load generators) *)

  module Client : sig
    (** A resolver on one UDP stack. It numbers its queries from 1, so
        its query ids and source ports do not depend on other resolvers
        or on earlier worlds. Use one resolver per stack: two on the same
        stack would pick the same source ports. *)
    type t

    val create : Engine.Sim.t -> U.t -> t

    (** [query t ~server ~qname ~qtype ()] sends one query and resolves
        with the response ([None] on 2 s timeout). *)
    val query :
      t ->
      server:U.ipaddr ->
      ?port:int ->
      qname:Dns_name.t ->
      qtype:Dns_wire.qtype ->
      unit ->
      Dns_wire.message option Mthread.Promise.t
  end
end
