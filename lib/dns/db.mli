(** Authoritative zone database: name-indexed record sets with CNAME
    chasing and proper NXDOMAIN/NODATA authority sections. *)

type t

type lookup_result =
  | Answers of Dns_wire.rr list  (** includes any CNAME chain walked *)
  | No_data of Dns_wire.rr  (** name exists, no records of qtype; SOA *)
  | Nx_domain of Dns_wire.rr  (** name absent; SOA *)
  | Not_authoritative

val create : origin:Dns_name.t -> t

val of_zone : Zone.t -> t

val add : t -> Dns_wire.rr -> unit

val lookup : t -> qname:Dns_name.t -> qtype:Dns_wire.qtype -> lookup_result

(** Distinct names in the zone (Figure 10's x-axis). *)
val entries : t -> int

(** [own_name t n] is the zone's own string for the name [n] when the
    zone holds it, and [n] itself otherwise: a cache keyed on the result
    shares the zone's copy instead of keeping another. *)
val own_name : t -> Dns_name.t -> Dns_name.t

val origin : t -> Dns_name.t

(** Build the full response message for one query. *)
val answer : t -> id:int -> Dns_wire.question -> Dns_wire.message
