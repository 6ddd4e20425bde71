(** DNS message wire format (RFC 1035 subset), with label compression on
    encode and pointer-chasing on decode. *)

type qtype = A | NS | CNAME | SOA | PTR | MX | TXT | AAAA | ANY | Unknown_qtype of int

val qtype_to_int : qtype -> int

type rcode = No_error | Format_error | Server_failure | Name_error | Not_implemented | Refused

type flags = {
  qr : bool;  (** response *)
  opcode : int;
  aa : bool;  (** authoritative answer *)
  tc : bool;
  rd : bool;
  ra : bool;
  rcode : rcode;
}

val response_flags : aa:bool -> rcode:rcode -> flags

type question = { qname : Dns_name.t; qtype : qtype }

type soa = {
  mname : Dns_name.t;
  rname : Dns_name.t;
  serial : int;
  refresh : int;
  retry : int;
  expire : int;
  minimum : int;
}

type rdata =
  | A_data of Netstack.Ipaddr.t
  | NS_data of Dns_name.t
  | CNAME_data of Dns_name.t
  | SOA_data of soa
  | PTR_data of Dns_name.t
  | MX_data of int * Dns_name.t
  | TXT_data of string
  | AAAA_data of string  (** 16 raw bytes *)
  | Raw_data of int * string

val rdata_qtype : rdata -> qtype

type rr = { name : Dns_name.t; ttl : int; rdata : rdata }

type message = {
  id : int;
  flags : flags;
  questions : question list;
  answers : rr list;
  authorities : rr list;
  additionals : rr list;
}

val query : id:int -> Dns_name.t -> qtype -> message

(** [encode ?impl msg] serialises with label compression using the chosen
    table implementation (default {!Compress.Fmap}). The result is a view
    of the buffer it was written into. *)
val encode : ?impl:Compress.impl -> message -> Bytestruct.t

exception Decode_error of string

(** @raise Decode_error on malformed input (never reads out of bounds —
    type-safety does the bounds checks the paper credits with eliminating
    BIND's packet-parsing CVEs), including a reserved label type (length
    byte 0x40–0xBF), a forward or looping compression pointer, and a name
    over 255 octets. Names come out lowercased. *)
val decode : Bytestruct.t -> message

(** Patch the transaction id of an already-encoded message in place — the
    memoisation fast path. *)
val patch_id : Bytestruct.t -> int -> unit

val get_id : Bytestruct.t -> int
