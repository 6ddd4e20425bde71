(** Response memoisation — the paper's "simple 20 line patch" that lifted
    the Mirage DNS appliance from ~40 to 75-80 kqueries/s (§4.2): encoded
    responses are cached by (name, qtype code); a hit only patches the
    transaction id. Each response is kept as one immutable string.

    The table is flat: open addressing over parallel arrays of names,
    qtype codes and responses, three words a slot and no allocation per
    probe. It holds the name string it is given, so a caller that passes
    the zone database's own copy ({!Db.own_name}) keeps one copy of each
    zone name between the two. It never evicts: every distinct (name,
    qtype) asked adds an entry. *)

type t

val create : unit -> t

(** Cached encoded response (a fresh view each call; the id is stale until
    {!Dns_wire.patch_id}). *)
val find : t -> qname:Dns_name.t -> qtype:Dns_wire.qtype -> Bytestruct.t option

(** [add t ~qname ~qtype encoded] caches a copy of [encoded], replacing
    any response already held for (name, qtype). A new entry is stored
    under [qname] itself. *)
val add : t -> qname:Dns_name.t -> qtype:Dns_wire.qtype -> Bytestruct.t -> unit

val hits : t -> int
val misses : t -> int

(** Distinct (name, qtype) pairs held. *)
val entries : t -> int
