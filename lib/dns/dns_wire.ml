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

(* Messages are built into a growing Buffer; offsets are buffer positions. *)

let encode_flags f =
  (if f.qr then 0x8000 else 0)
  lor (f.opcode lsl 11)
  lor (if f.aa then 0x0400 else 0)
  lor (if f.tc then 0x0200 else 0)
  lor (if f.rd then 0x0100 else 0)
  lor (if f.ra then 0x0080 else 0)
  lor rcode_to_int f.rcode

let add_u8 buf v = Buffer.add_char buf (Char.chr (v land 0xff))

let add_u16 buf v =
  add_u8 buf (v lsr 8);
  add_u8 buf v

let add_u32 buf v =
  add_u16 buf (v lsr 16);
  add_u16 buf v

(* [pos_base] positions names written into a scratch buffer (rdata) at
   their eventual absolute message offset. *)
let write_name ?(pos_base = 0) buf table name =
  let emit_labels labels =
    List.iter
      (fun l ->
        if String.length l > 63 then invalid_arg "Dns_wire: label too long";
        add_u8 buf (String.length l);
        Buffer.add_string buf l)
      labels
  in
  match Compress.find_longest table name with
  | Some (suffix, offset, leading) ->
    (* The leading labels create fresh, longer suffixes: register each
       before emitting the pointer to the matched tail. *)
    let rec reg labels pos =
      match labels with
      | [] -> ()
      | label :: rest ->
        Compress.add table (labels @ suffix) pos;
        reg rest (pos + 1 + String.length label)
    in
    reg leading (pos_base + Buffer.length buf);
    emit_labels leading;
    add_u16 buf (0xC000 lor offset)
  | None ->
    let rec reg labels pos =
      match labels with
      | [] -> ()
      | label :: rest ->
        Compress.add table labels pos;
        reg rest (pos + 1 + String.length label)
    in
    reg name (pos_base + Buffer.length buf);
    emit_labels name;
    add_u8 buf 0

let write_rdata ?pos_base buf table = function
  | A_data ip -> add_u32 buf (Int32.to_int (Netstack.Ipaddr.to_int32 ip) land 0xFFFFFFFF)
  | NS_data n | CNAME_data n | PTR_data n -> write_name ?pos_base buf table n
  | SOA_data s ->
    write_name ?pos_base buf table s.mname;
    write_name ?pos_base buf table s.rname;
    add_u32 buf s.serial;
    add_u32 buf s.refresh;
    add_u32 buf s.retry;
    add_u32 buf s.expire;
    add_u32 buf s.minimum
  | MX_data (pref, n) ->
    add_u16 buf pref;
    write_name ?pos_base buf table n
  | TXT_data s ->
    (* character-strings of up to 255 bytes *)
    let rec chunks off =
      if off < String.length s then begin
        let n = min 255 (String.length s - off) in
        add_u8 buf n;
        Buffer.add_string buf (String.sub s off n);
        chunks (off + n)
      end
      else if String.length s = 0 then add_u8 buf 0
    in
    chunks 0
  | AAAA_data raw -> Buffer.add_string buf raw
  | Raw_data (_, raw) -> Buffer.add_string buf raw

let write_rr buf table (r : rr) =
  write_name buf table r.name;
  add_u16 buf (qtype_to_int (rdata_qtype r.rdata));
  add_u16 buf 1 (* IN *);
  add_u32 buf r.ttl;
  (* rdata goes through a scratch buffer so its length can prefix it;
     [pos_base] keeps compression offsets pointing at the final layout. *)
  let scratch = Buffer.create 32 in
  write_rdata ~pos_base:(Buffer.length buf + 2) scratch table r.rdata;
  add_u16 buf (Buffer.length scratch);
  Buffer.add_buffer buf scratch

let encode ?(impl = Compress.Fmap) msg =
  let buf = Buffer.create 256 in
  let table = Compress.create impl in
  add_u16 buf msg.id;
  add_u16 buf (encode_flags msg.flags);
  add_u16 buf (List.length msg.questions);
  add_u16 buf (List.length msg.answers);
  add_u16 buf (List.length msg.authorities);
  add_u16 buf (List.length msg.additionals);
  List.iter
    (fun q ->
      write_name buf table q.qname;
      add_u16 buf (qtype_to_int q.qtype);
      add_u16 buf 1)
    msg.questions;
  List.iter (write_rr buf table) msg.answers;
  List.iter (write_rr buf table) msg.authorities;
  List.iter (write_rr buf table) msg.additionals;
  Bytestruct.of_string (Buffer.contents buf)

(* ---------- decoding ---------- *)

exception Decode_error of string

let u8 b o = if o >= Bytestruct.length b then raise (Decode_error "truncated") else Bytestruct.get_uint8 b o

let u16 b o =
  if o + 2 > Bytestruct.length b then raise (Decode_error "truncated") else Bytestruct.BE.get_uint16 b o

let u32 b o =
  if o + 4 > Bytestruct.length b then raise (Decode_error "truncated")
  else Int32.to_int (Bytestruct.BE.get_uint32 b o) land 0xFFFFFFFF

(* Returns (name, next_offset). Pointer chains are bounded to prevent the
   classic decompression loops. *)
let read_name b off =
  let rec go off jumps acc next =
    if jumps > 64 then raise (Decode_error "compression loop");
    let len = u8 b off in
    if len = 0 then (List.rev acc, match next with Some n -> n | None -> off + 1)
    else if len land 0xC0 = 0xC0 then begin
      let ptr = ((len land 0x3f) lsl 8) lor u8 b (off + 1) in
      if ptr >= off then raise (Decode_error "forward pointer");
      go ptr (jumps + 1) acc (match next with Some n -> Some n | None -> Some (off + 2))
    end
    else begin
      if off + 1 + len > Bytestruct.length b then raise (Decode_error "label overrun");
      let label = String.lowercase_ascii (Bytestruct.get_string b (off + 1) len) in
      go (off + 1 + len) jumps (label :: acc) next
    end
  in
  go off 0 [] None

let read_rdata b ~rtype ~off ~rdlen =
  match rtype with
  | 1 when rdlen = 4 -> A_data (Netstack.Ipaddr.get b off)
  | 2 -> NS_data (fst (read_name b off))
  | 5 -> CNAME_data (fst (read_name b off))
  | 12 -> PTR_data (fst (read_name b off))
  | 6 ->
    let mname, o = read_name b off in
    let rname, o = read_name b o in
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
  | 15 -> MX_data (u16 b off, fst (read_name b (off + 2)))
  | 16 ->
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
    TXT_data (Buffer.contents buf)
  | 28 when rdlen = 16 -> AAAA_data (Bytestruct.get_string b off 16)
  | t -> Raw_data (t, Bytestruct.get_string b off rdlen)

let read_rr b off =
  let name, o = read_name b off in
  let rtype = u16 b o in
  let ttl = u32 b (o + 4) in
  let rdlen = u16 b (o + 8) in
  let rdata_off = o + 10 in
  if rdata_off + rdlen > Bytestruct.length b then raise (Decode_error "rdata overrun");
  ({ name; ttl; rdata = read_rdata b ~rtype ~off:rdata_off ~rdlen }, rdata_off + rdlen)

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
  let off = ref 12 in
  let questions =
    List.init qd (fun _ ->
        let qname, o = read_name b !off in
        let qtype = qtype_of_int (u16 b o) in
        off := o + 4;
        { qname; qtype })
  in
  let section n =
    List.init n (fun _ ->
        let rr, o = read_rr b !off in
        off := o;
        rr)
  in
  let answers = section an in
  let authorities = section ns in
  let additionals = section ar in
  { id; flags; questions; answers; authorities; additionals }

let patch_id b id = Bytestruct.BE.set_uint16 b 0 id
let get_id b = Bytestruct.BE.get_uint16 b 0
