type qtype = A | NS | CNAME | SOA | PTR | MX | TXT | AAAA | ANY | Unknown_qtype of int

let qtype_to_int = function
  | A -> 1
  | NS -> 2
  | CNAME -> 5
  | SOA -> 6
  | PTR -> 12
  | MX -> 15
  | TXT -> 16
  | AAAA -> 28
  | ANY -> 255
  | Unknown_qtype i -> i

let qtype_of_int = function
  | 1 -> A
  | 2 -> NS
  | 5 -> CNAME
  | 6 -> SOA
  | 12 -> PTR
  | 15 -> MX
  | 16 -> TXT
  | 28 -> AAAA
  | 255 -> ANY
  | i -> Unknown_qtype i

type rcode = No_error | Format_error | Server_failure | Name_error | Not_implemented | Refused

let rcode_to_int = function
  | No_error -> 0
  | Format_error -> 1
  | Server_failure -> 2
  | Name_error -> 3
  | Not_implemented -> 4
  | Refused -> 5

let rcode_of_int = function
  | 0 -> No_error
  | 1 -> Format_error
  | 2 -> Server_failure
  | 3 -> Name_error
  | 4 -> Not_implemented
  | _ -> Refused

type flags = { qr : bool; opcode : int; aa : bool; tc : bool; rd : bool; ra : bool; rcode : rcode }

let query_flags = { qr = false; opcode = 0; aa = false; tc = false; rd = true; ra = false; rcode = No_error }

let response_flags ~aa ~rcode = { qr = true; opcode = 0; aa; tc = false; rd = true; ra = false; rcode }

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
  | AAAA_data of string
  | Raw_data of int * string

let rdata_qtype = function
  | A_data _ -> A
  | NS_data _ -> NS
  | CNAME_data _ -> CNAME
  | SOA_data _ -> SOA
  | PTR_data _ -> PTR
  | MX_data _ -> MX
  | TXT_data _ -> TXT
  | AAAA_data _ -> AAAA
  | Raw_data (t, _) -> qtype_of_int t

type rr = { name : Dns_name.t; ttl : int; rdata : rdata }

type message = {
  id : int;
  flags : flags;
  questions : question list;
  answers : rr list;
  authorities : rr list;
  additionals : rr list;
}

let query ~id qname qtype =
  {
    id;
    flags = query_flags;
    questions = [ { qname; qtype } ];
    answers = [];
    authorities = [];
    additionals = [];
  }

(* ---------- encoding ---------- *)

(* A message is written straight into one growing buffer, so every
   offset is a message position: compression pointers need no rebasing,
   and an RR's RDLENGTH is back-patched once its rdata is written. *)
type encoder = { mutable buf : Bytes.t; mutable pos : int; table : Compress.table }

let encode_flags f =
  (if f.qr then 0x8000 else 0)
  lor (f.opcode lsl 11)
  lor (if f.aa then 0x0400 else 0)
  lor (if f.tc then 0x0200 else 0)
  lor (if f.rd then 0x0100 else 0)
  lor (if f.ra then 0x0080 else 0)
  lor rcode_to_int f.rcode

let reserve e n =
  let need = e.pos + n in
  if need > Bytes.length e.buf then begin
    let b = Bytes.create (max need (2 * Bytes.length e.buf)) in
    Bytes.blit e.buf 0 b 0 e.pos;
    e.buf <- b
  end

let add_u8 e v =
  reserve e 1;
  Bytes.set_uint8 e.buf e.pos (v land 0xff);
  e.pos <- e.pos + 1

let add_u16 e v =
  reserve e 2;
  Bytes.set_uint16_be e.buf e.pos (v land 0xffff);
  e.pos <- e.pos + 2

let add_u32 e v =
  add_u16 e (v lsr 16);
  add_u16 e v

let add_sub e s off len =
  reserve e len;
  Bytes.blit_string s off e.buf e.pos len;
  e.pos <- e.pos + len

(* Each label boundary before [split] starts a suffix not yet in the
   table: record it at the offset it is about to be written to. *)
let rec register e name split p =
  if p < split then begin
    Compress.add e.table name ~start:p (e.pos + p);
    let len = Char.code (String.unsafe_get (name : Dns_name.t :> string) p) in
    register e name split (p + 1 + len)
  end

(* The uncovered prefix goes out as one blit, then a pointer to the
   longest known suffix or the root byte. *)
let write_name e name =
  let s = (name : Dns_name.t :> string) in
  match Compress.find_longest e.table name with
  | Some (split, offset) ->
    register e name split 0;
    add_sub e s 0 split;
    add_u16 e (0xC000 lor offset)
  | None ->
    register e name (String.length s) 0;
    add_sub e s 0 (String.length s);
    add_u8 e 0

let rec write_txt e s off =
  if off < String.length s then begin
    (* character-strings of up to 255 bytes *)
    let n = min 255 (String.length s - off) in
    add_u8 e n;
    add_sub e s off n;
    write_txt e s (off + n)
  end
  else if String.length s = 0 then add_u8 e 0

let write_rdata e = function
  | A_data ip -> add_u32 e (Netstack.Ipaddr.to_int ip)
  | NS_data n | CNAME_data n | PTR_data n -> write_name e n
  | SOA_data s ->
    write_name e s.mname;
    write_name e s.rname;
    add_u32 e s.serial;
    add_u32 e s.refresh;
    add_u32 e s.retry;
    add_u32 e s.expire;
    add_u32 e s.minimum
  | MX_data (pref, n) ->
    add_u16 e pref;
    write_name e n
  | TXT_data s -> write_txt e s 0
  | AAAA_data raw | Raw_data (_, raw) -> add_sub e raw 0 (String.length raw)

let write_rr e (r : rr) =
  write_name e r.name;
  add_u16 e (qtype_to_int (rdata_qtype r.rdata));
  add_u16 e 1 (* IN *);
  add_u32 e r.ttl;
  let rdlength = e.pos in
  add_u16 e 0;
  write_rdata e r.rdata;
  Bytes.set_uint16_be e.buf rdlength ((e.pos - rdlength - 2) land 0xffff)

let write_question e q =
  write_name e q.qname;
  add_u16 e (qtype_to_int q.qtype);
  add_u16 e 1

let encode ?(impl = Compress.Fmap) msg =
  let e = { buf = Bytes.create 128; pos = 0; table = Compress.create impl } in
  add_u16 e msg.id;
  add_u16 e (encode_flags msg.flags);
  add_u16 e (List.length msg.questions);
  add_u16 e (List.length msg.answers);
  add_u16 e (List.length msg.authorities);
  add_u16 e (List.length msg.additionals);
  List.iter (write_question e) msg.questions;
  List.iter (write_rr e) msg.answers;
  List.iter (write_rr e) msg.authorities;
  List.iter (write_rr e) msg.additionals;
  Bytestruct.sub (Bytestruct.of_bytes e.buf) 0 e.pos

(* ---------- decoding ---------- *)

exception Decode_error of string

let u8 b o = if o >= Bytestruct.length b then raise (Decode_error "truncated") else Bytestruct.get_uint8 b o

let u16 b o =
  if o + 2 > Bytestruct.length b then raise (Decode_error "truncated") else Bytestruct.BE.get_uint16 b o

let u32 b o =
  if o + 4 > Bytestruct.length b then raise (Decode_error "truncated")
  else Int32.to_int (Bytestruct.BE.get_uint32 b o) land 0xFFFFFFFF

(* The decoder reads a message front to back through one cursor. *)
type cursor = { b : Bytestruct.t; mutable off : int }

(* First pass over a name: validate every length byte and pointer, move
   the cursor past the name as it sits in place, and return the size of
   its decoded form. Pointers must point backwards and chains are
   bounded, which rules out the classic decompression loops; length
   bytes 0x40-0xBF are reserved (RFC 1035 §4.1.4). *)
let rec name_size c o jumps size =
  let len = u8 c.b o in
  if len = 0 then begin
    if jumps = 0 then c.off <- o + 1;
    size
  end
  else if len land 0xC0 = 0xC0 then begin
    if jumps >= 64 then raise (Decode_error "compression loop");
    let ptr = ((len land 0x3f) lsl 8) lor u8 c.b (o + 1) in
    if ptr >= o then raise (Decode_error "forward pointer");
    if jumps = 0 then c.off <- o + 2;
    name_size c ptr (jumps + 1) size
  end
  else if len > 63 then raise (Decode_error "reserved label type")
  else begin
    if o + 1 + len > Bytestruct.length c.b then raise (Decode_error "label overrun");
    let size = size + 1 + len in
    if size > 254 then raise (Decode_error "name over 255 octets");
    name_size c (o + 1 + len) jumps size
  end

(* Second pass, over a name [name_size] validated. In the message a run
   of labels up to a pointer or the root byte is already in the decoded
   form, so each run is one blit. *)
let rec run_end b o =
  let len = Bytestruct.get_uint8 b o in
  if len = 0 || len >= 0xC0 then o else run_end b (o + 1 + len)

let rec name_fill b o dst p =
  let e = run_end b o in
  Bytestruct.blit b o dst p (e - o);
  let len = Bytestruct.get_uint8 b e in
  if len >= 0xC0 then
    name_fill b (((len land 0x3f) lsl 8) lor Bytestruct.get_uint8 b (e + 1)) dst (p + e - o)

(* Length bytes are 1-63, below 'A', so lowercasing the whole string
   touches only label octets. *)
let lowercase_in_place s =
  for i = 0 to Bytes.length s - 1 do
    let c = Bytes.unsafe_get s i in
    if c >= 'A' && c <= 'Z' then Bytes.unsafe_set s i (Char.unsafe_chr (Char.code c + 32))
  done

let root = Dns_name.of_string ""

let read_name c =
  let start = c.off in
  let size = name_size c start 0 0 in
  if size = 0 then root
  else begin
    let dst = Bytes.create size in
    name_fill c.b start (Bytestruct.of_bytes dst) 0;
    lowercase_in_place dst;
    Dns_name.unsafe_of_string (Bytes.unsafe_to_string dst)
  end

let read_txt b off rdlen =
  let buf = Buffer.create rdlen in
  let rec go o =
    if o < off + rdlen then begin
      let n = u8 b o in
      if o + 1 + n > off + rdlen then raise (Decode_error "TXT overrun");
      Buffer.add_string buf (Bytestruct.get_string b (o + 1) n);
      go (o + 1 + n)
    end
  in
  go off;
  Buffer.contents buf

(* Rdata starts at the cursor; the caller moves it past RDLENGTH after. *)
let read_rdata c ~rtype ~rdlen =
  let b = c.b and off = c.off in
  match rtype with
  | 1 when rdlen = 4 -> A_data (Netstack.Ipaddr.get b off)
  | 2 -> NS_data (read_name c)
  | 5 -> CNAME_data (read_name c)
  | 12 -> PTR_data (read_name c)
  | 6 ->
    let mname = read_name c in
    let rname = read_name c in
    let o = c.off in
    SOA_data
      {
        mname;
        rname;
        serial = u32 b o;
        refresh = u32 b (o + 4);
        retry = u32 b (o + 8);
        expire = u32 b (o + 12);
        minimum = u32 b (o + 16);
      }
  | 15 ->
    let pref = u16 b off in
    c.off <- off + 2;
    MX_data (pref, read_name c)
  | 16 -> TXT_data (read_txt b off rdlen)
  | 28 when rdlen = 16 -> AAAA_data (Bytestruct.get_string b off 16)
  | t -> Raw_data (t, Bytestruct.get_string b off rdlen)

let read_rr c =
  let name = read_name c in
  let o = c.off in
  let rtype = u16 c.b o in
  let ttl = u32 c.b (o + 4) in
  let rdlen = u16 c.b (o + 8) in
  let rdata_off = o + 10 in
  if rdata_off + rdlen > Bytestruct.length c.b then raise (Decode_error "rdata overrun");
  c.off <- rdata_off;
  let rdata = read_rdata c ~rtype ~rdlen in
  c.off <- rdata_off + rdlen;
  { name; ttl; rdata }

let read_question c =
  let qname = read_name c in
  let qtype = qtype_of_int (u16 c.b c.off) in
  c.off <- c.off + 4;
  { qname; qtype }

let decode b =
  if Bytestruct.length b < 12 then raise (Decode_error "no header");
  let id = u16 b 0 in
  let fl = u16 b 2 in
  let flags =
    {
      qr = fl land 0x8000 <> 0;
      opcode = (fl lsr 11) land 0xf;
      aa = fl land 0x0400 <> 0;
      tc = fl land 0x0200 <> 0;
      rd = fl land 0x0100 <> 0;
      ra = fl land 0x0080 <> 0;
      rcode = rcode_of_int (fl land 0xf);
    }
  in
  let qd = u16 b 4 and an = u16 b 6 and ns = u16 b 8 and ar = u16 b 10 in
  let c = { b; off = 12 } in
  let questions = List.init qd (fun _ -> read_question c) in
  let answers = List.init an (fun _ -> read_rr c) in
  let authorities = List.init ns (fun _ -> read_rr c) in
  let additionals = List.init ar (fun _ -> read_rr c) in
  { id; flags; questions; answers; authorities; additionals }

let patch_id b id = Bytestruct.BE.set_uint16 b 0 id
let get_id b = Bytestruct.BE.get_uint16 b 0
