(** Response memoisation — the paper's "simple 20 line patch" that lifted
    the Mirage DNS appliance from ~40 to 75-80 kqueries/s (§4.2): encoded
    responses are cached by (name, type); a hit only patches the
    transaction id. Each response is kept as one immutable string. *)

type t

val create : unit -> t

(** Cached encoded response (a fresh view each call; the id is stale until
    {!Dns_wire.patch_id}). *)
val find : t -> qname:Dns_name.t -> qtype:Dns_wire.qtype -> Bytestruct.t option

val add : t -> qname:Dns_name.t -> qtype:Dns_wire.qtype -> Bytestruct.t -> unit

val hits : t -> int
val misses : t -> int
val entries : t -> int
