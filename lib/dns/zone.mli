(** Bind9-format zone file parser (the format the paper's appliance stores
    its zones in, §4.2). Subset: [$TTL], [$ORIGIN], parenthesised
    multi-line records, [@], relative names, blank-name continuation;
    record types A, NS, CNAME, SOA, MX, TXT, PTR. *)

type t = { origin : Dns_name.t; default_ttl : int; records : Dns_wire.rr list }

exception Parse_error of int * string  (** line number, message *)

(** @raise Parse_error also for a name that breaks RFC 1035's limits (an
    empty label, a label over 63 octets, a name over 255 octets).
    @raise Invalid_argument when [origin] itself does. *)
val parse : origin:string -> string -> t

(** Generate a synthetic zone of [entries] A records (queryperf-style
    workloads for Figure 10): [host-%d.<origin>]. Includes SOA and NS. *)
val synthesize : origin:string -> entries:int -> t

(** Render back to zone-file text (round-trip tests). *)
val to_string : t -> string
