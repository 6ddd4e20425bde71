open Testlib
module P = Mthread.Promise

let name = Dns.Dns_name.of_string

(* A name from its labels, leftmost first, one [cons] at a time. *)
let of_labels labels = List.fold_right Dns.Dns_name.cons labels (name ".")

(* ---- names ---- *)

let test_name_parsing () =
  Alcotest.(check (list string)) "labels" [ "www"; "example"; "com" ]
    (Dns.Dns_name.labels (name "www.Example.COM"));
  Alcotest.(check (list string)) "trailing dot" [ "a"; "b" ] (Dns.Dns_name.labels (name "a.b."));
  Alcotest.(check (list string)) "root" [] (Dns.Dns_name.labels (name "."));
  check_string "to_string" "www.example.com" (Dns.Dns_name.to_string (name "www.example.com"));
  check_string "root prints dot" "." (Dns.Dns_name.to_string (of_labels []));
  check_string "wire form" "\003www\007example\003com" (name "WWW.example.com" :> string);
  check_bool "cons inverts labels" true
    (Dns.Dns_name.equal (of_labels [ "www"; "Example"; "com" ]) (name "www.example.com"));
  check_bool "cons" true (Dns.Dns_name.equal (Dns.Dns_name.cons "WWW" (name "example.com")) (name "www.example.com"));
  check_bool "append" true
    (Dns.Dns_name.equal (Dns.Dns_name.append (name "a.b") (name "example.com")) (name "a.b.example.com"))

let test_name_suffixes () =
  (* Compression splits a name at the label boundary where its longest
     known suffix starts. *)
  let t = Dns.Compress.create Dns.Compress.Fmap in
  Dns.Compress.add t (name "b.c") ~start:0 12;
  Alcotest.(check (option (pair int int)))
    "split before b.c" (Some (2, 12)) (Dns.Compress.find_longest t (name "a.b.c"));
  Dns.Compress.add t (name "a.b.c") ~start:0 20;
  Alcotest.(check (option (pair int int)))
    "whole name" (Some (0, 20)) (Dns.Compress.find_longest t (name "a.b.c"));
  check_bool "is_suffix" true (Dns.Dns_name.is_suffix ~suffix:(name "example.com") (name "www.example.com"));
  check_bool "not suffix" false (Dns.Dns_name.is_suffix ~suffix:(name "example.org") (name "www.example.com"));
  check_bool "root is a suffix of all" true (Dns.Dns_name.is_suffix ~suffix:(name ".") (name "a.b"));
  check_bool "a name is its own suffix" true (Dns.Dns_name.is_suffix ~suffix:(name "a.b") (name "a.b"));
  check_int "encoded length" 17 (Dns.Dns_name.encoded_length (name "www.example.com"))

let test_name_suffix_label_boundary () =
  (* "\009a\007example" ends with the bytes of "\007example", but inside
     its one label. *)
  check_bool "bytes match off a label boundary" false
    (Dns.Dns_name.is_suffix ~suffix:(name "example") (of_labels [ "a\007example" ]));
  let t = Dns.Compress.create Dns.Compress.Hashtable in
  Dns.Compress.add t (name "example") ~start:0 12;
  check_bool "compression never splits a label" true
    (Dns.Compress.find_longest t (of_labels [ "a\007example" ]) = None)

let rejects what f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.failf "%s accepted" what

let test_name_empty_label () =
  rejects "a..b.example" (fun () -> name "a..b.example");
  rejects "leading dot" (fun () -> name ".a");
  rejects "cons empty label" (fun () -> of_labels [ "a"; ""; "b" ])

let test_name_long_label () =
  ignore (name (String.make 63 'a' ^ ".example"));
  rejects "64-octet label" (fun () -> name (String.make 64 'a' ^ ".example"));
  rejects "cons 64-octet label" (fun () -> Dns.Dns_name.cons (String.make 64 'a') (name "example"))

let test_name_long_name () =
  (* 4 x 63-octet labels encode to 4 * 64 + 1 = 257 octets; one octet
     shorter in the last label is 256, and two shorter is the limit. *)
  let l = String.make 63 'a' in
  let name_of last = name (String.concat "." [ l; l; l; String.make last 'b' ]) in
  check_int "255 octets accepted" 255 (Dns.Dns_name.encoded_length (name_of 61));
  rejects "256 octets" (fun () -> name_of 62);
  rejects "579 octets" (fun () -> name (String.concat "." (List.init 9 (fun _ -> l)) ^ ".x"));
  rejects "append past 255" (fun () -> Dns.Dns_name.append (name_of 61) (name "x"))

(* ---- compression ---- *)

let compression_impls = [ ("hashtable", Dns.Compress.Hashtable); ("fmap", Dns.Compress.Fmap) ]

let test_compress_find_longest () =
  List.iter
    (fun (label, impl) ->
      let t = Dns.Compress.create impl in
      Dns.Compress.add t (name "example.com") ~start:0 12;
      Dns.Compress.add t (name "www.example.com") ~start:0 30;
      (match Dns.Compress.find_longest t (name "mail.example.com") with
      | Some (split, off) ->
        check_int (label ^ " offset") 12 off;
        check_int (label ^ " leading \\004mail") 5 split
      | None -> Alcotest.fail (label ^ ": expected a match"));
      (match Dns.Compress.find_longest t (name "www.example.com") with
      | Some (split, off) ->
        check_int (label ^ " exact offset") 30 off;
        check_int (label ^ " no leading") 0 split
      | None -> Alcotest.fail (label ^ ": exact match expected"));
      check_bool (label ^ " miss") true (Dns.Compress.find_longest t (name "other.org") = None))
    compression_impls

let test_compress_ignores_high_offsets () =
  List.iter
    (fun (_, impl) ->
      let t = Dns.Compress.create impl in
      Dns.Compress.add t (name "far.example") ~start:0 0x4000;
      check_int "not stored" 0 (Dns.Compress.entries t))
    compression_impls

let prop_compress_impls_agree =
  qtest ~count:50 "both table impls give identical answers"
    QCheck.(list_of_size (QCheck.Gen.int_range 1 20) (pair (int_bound 5) (int_bound 1000)))
    (fun entries ->
      let ht = Dns.Compress.create Dns.Compress.Hashtable in
      let fm = Dns.Compress.create Dns.Compress.Fmap in
      let mk i = name (Printf.sprintf "h%d.zone%d.example.com" i (i mod 3)) in
      List.iter
        (fun (i, off) ->
          Dns.Compress.add ht (mk i) ~start:0 off;
          Dns.Compress.add fm (mk i) ~start:0 off)
        entries;
      List.for_all
        (fun (i, _) ->
          let q = name (Printf.sprintf "x.h%d.zone%d.example.com" i (i mod 3)) in
          Dns.Compress.find_longest ht q = Dns.Compress.find_longest fm q)
        entries)

(* ---- wire codec ---- *)

let sample_message () =
  {
    Dns.Dns_wire.id = 0xBEEF;
    flags = Dns.Dns_wire.response_flags ~aa:true ~rcode:Dns.Dns_wire.No_error;
    questions = [ { Dns.Dns_wire.qname = name "www.example.com"; qtype = Dns.Dns_wire.A } ];
    answers =
      [
        { Dns.Dns_wire.name = name "www.example.com"; ttl = 300;
          rdata = Dns.Dns_wire.CNAME_data (name "web.example.com") };
        { Dns.Dns_wire.name = name "web.example.com"; ttl = 300;
          rdata = Dns.Dns_wire.A_data (Netstack.Ipaddr.v4 10 1 2 3) };
      ];
    authorities =
      [
        { Dns.Dns_wire.name = name "example.com"; ttl = 3600;
          rdata = Dns.Dns_wire.NS_data (name "ns1.example.com") };
      ];
    additionals = [];
  }

let test_wire_roundtrip_with_compression () =
  List.iter
    (fun (label, impl) ->
      let msg = sample_message () in
      let encoded = Dns.Dns_wire.encode ~impl msg in
      let decoded = Dns.Dns_wire.decode encoded in
      check_int (label ^ " id") msg.Dns.Dns_wire.id decoded.Dns.Dns_wire.id;
      check_int (label ^ " answers") 2 (List.length decoded.Dns.Dns_wire.answers);
      check_bool (label ^ " flags") true (decoded.Dns.Dns_wire.flags = msg.Dns.Dns_wire.flags);
      match decoded.Dns.Dns_wire.answers with
      | [ { Dns.Dns_wire.rdata = Dns.Dns_wire.CNAME_data target; _ };
          { Dns.Dns_wire.rdata = Dns.Dns_wire.A_data a; name = n; _ } ] ->
        check_string (label ^ " cname target") "web.example.com" (Dns.Dns_name.to_string target);
        check_string (label ^ " a owner") "web.example.com" (Dns.Dns_name.to_string n);
        check_string (label ^ " address") "10.1.2.3" (Netstack.Ipaddr.to_string a)
      | _ -> Alcotest.fail (label ^ ": unexpected answers"))
    compression_impls

let test_wire_compression_shrinks () =
  let msg = sample_message () in
  let compressed = Dns.Dns_wire.encode msg in
  (* Same names written repeatedly: compression must be significantly
     smaller than the naive sum of encoded names. *)
  let naive =
    12
    + List.fold_left (fun acc (q : Dns.Dns_wire.question) -> acc + Dns.Dns_name.encoded_length q.Dns.Dns_wire.qname + 4) 0 msg.Dns.Dns_wire.questions
    + 3 * 30
  in
  check_bool
    (Printf.sprintf "compressed %d < naive %d" (Bytestruct.length compressed) naive)
    true
    (Bytestruct.length compressed < naive)

let test_wire_both_impls_byte_identical () =
  let a = Dns.Dns_wire.encode ~impl:Dns.Compress.Hashtable (sample_message ()) in
  let b = Dns.Dns_wire.encode ~impl:Dns.Compress.Fmap (sample_message ()) in
  check_bool "identical bytes" true (Bytestruct.equal a b)

let test_wire_decode_rejects_garbage () =
  (match Dns.Dns_wire.decode (bs "short") with
  | exception Dns.Dns_wire.Decode_error _ -> ()
  | _ -> Alcotest.fail "short packet");
  (* pointer loop: name with pointer to itself *)
  let evil = Bytestruct.create 16 in
  Bytestruct.BE.set_uint16 evil 4 1 (* qdcount *);
  Bytestruct.set_uint8 evil 12 0xC0;
  Bytestruct.set_uint8 evil 13 12;
  match Dns.Dns_wire.decode evil with
  | exception Dns.Dns_wire.Decode_error _ -> ()
  | _ -> Alcotest.fail "pointer loop must be rejected"

let test_patch_id () =
  let encoded = Dns.Dns_wire.encode (sample_message ()) in
  Dns.Dns_wire.patch_id encoded 0x1234;
  check_int "patched" 0x1234 (Dns.Dns_wire.get_id encoded);
  check_int "decodes with new id" 0x1234 (Dns.Dns_wire.decode encoded).Dns.Dns_wire.id

let arbitrary_rr_message =
  QCheck.make
    (QCheck.Gen.map
       (fun (id, hosts) ->
         {
           Dns.Dns_wire.id = id land 0xffff;
           flags = Dns.Dns_wire.response_flags ~aa:true ~rcode:Dns.Dns_wire.No_error;
           questions = [ { Dns.Dns_wire.qname = name "q.test.zone"; qtype = Dns.Dns_wire.ANY } ];
           answers =
             List.map
               (fun (h, ip) ->
                 {
                   Dns.Dns_wire.name = name (Printf.sprintf "host-%d.test.zone" (h land 0xff));
                   ttl = 60;
                   rdata = Dns.Dns_wire.A_data (Netstack.Ipaddr.of_int32 (Int32.of_int ip));
                 })
               hosts;
           authorities = [];
           additionals = [];
         })
       QCheck.Gen.(pair nat (list_size (int_range 0 20) (pair nat nat))))

let prop_wire_roundtrip =
  qtest "random messages roundtrip" arbitrary_rr_message (fun msg ->
      let decoded = Dns.Dns_wire.decode (Dns.Dns_wire.encode msg) in
      decoded.Dns.Dns_wire.id = msg.Dns.Dns_wire.id
      && List.length decoded.Dns.Dns_wire.answers = List.length msg.Dns.Dns_wire.answers
      && List.for_all2
           (fun (a : Dns.Dns_wire.rr) (b : Dns.Dns_wire.rr) ->
             Dns.Dns_name.equal a.Dns.Dns_wire.name b.Dns.Dns_wire.name
             && a.Dns.Dns_wire.rdata = b.Dns.Dns_wire.rdata)
           decoded.Dns.Dns_wire.answers msg.Dns.Dns_wire.answers)

let test_wire_long_txt_chunks () =
  let long = pattern 600 in
  let msg =
    { Dns.Dns_wire.id = 3;
      flags = Dns.Dns_wire.response_flags ~aa:true ~rcode:Dns.Dns_wire.No_error;
      questions = [];
      answers = [ { Dns.Dns_wire.name = name "t.example"; ttl = 60; rdata = Dns.Dns_wire.TXT_data long } ];
      authorities = []; additionals = [] }
  in
  let decoded = Dns.Dns_wire.decode (Dns.Dns_wire.encode msg) in
  match decoded.Dns.Dns_wire.answers with
  | [ { Dns.Dns_wire.rdata = Dns.Dns_wire.TXT_data s; _ } ] ->
    check_bool "600-byte TXT survives 255-byte chunking" true (s = long)
  | _ -> Alcotest.fail "expected one TXT answer"

(* The list-based encoder this codec replaced, kept as the oracle the
   new one must match byte for byte: names as label lists, a table keyed
   on label-list suffixes, and a scratch buffer per rdata. *)
module Oracle = struct
  let add_u8 buf v = Buffer.add_char buf (Char.chr (v land 0xff))

  let add_u16 buf v =
    add_u8 buf (v lsr 8);
    add_u8 buf v

  let add_u32 buf v =
    add_u16 buf (v lsr 16);
    add_u16 buf v

  let rec suffixes = function [] -> [] | _ :: rest as l -> l :: suffixes rest

  let write_name ?(pos_base = 0) buf table name =
    let name = Dns.Dns_name.labels name in
    let emit = List.iter (fun l -> add_u8 buf (String.length l); Buffer.add_string buf l) in
    let rec reg tail labels pos =
      match labels with
      | [] -> ()
      | l :: rest ->
        let key = labels @ tail in
        if pos < 0x4000 && not (Hashtbl.mem table key) then Hashtbl.replace table key pos;
        reg tail rest (pos + 1 + String.length l)
    in
    match List.find_opt (Hashtbl.mem table) (suffixes name) with
    | Some suffix ->
      let leading = List.filteri (fun i _ -> i < List.length name - List.length suffix) name in
      reg suffix leading (pos_base + Buffer.length buf);
      emit leading;
      add_u16 buf (0xC000 lor Hashtbl.find table suffix)
    | None ->
      reg [] name (pos_base + Buffer.length buf);
      emit name;
      add_u8 buf 0

  let write_rdata ~pos_base buf table = function
    | Dns.Dns_wire.A_data ip -> add_u32 buf (Int32.to_int (Netstack.Ipaddr.to_int32 ip) land 0xFFFFFFFF)
    | Dns.Dns_wire.NS_data n | Dns.Dns_wire.CNAME_data n | Dns.Dns_wire.PTR_data n ->
      write_name ~pos_base buf table n
    | Dns.Dns_wire.SOA_data s ->
      write_name ~pos_base buf table s.Dns.Dns_wire.mname;
      write_name ~pos_base buf table s.Dns.Dns_wire.rname;
      List.iter (add_u32 buf)
        Dns.Dns_wire.[ s.serial; s.refresh; s.retry; s.expire; s.minimum ]
    | Dns.Dns_wire.MX_data (pref, n) ->
      add_u16 buf pref;
      write_name ~pos_base buf table n
    | Dns.Dns_wire.TXT_data s ->
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
    | Dns.Dns_wire.AAAA_data raw | Dns.Dns_wire.Raw_data (_, raw) -> Buffer.add_string buf raw

  let write_rr buf table (r : Dns.Dns_wire.rr) =
    write_name buf table r.Dns.Dns_wire.name;
    add_u16 buf (Dns.Dns_wire.qtype_to_int (Dns.Dns_wire.rdata_qtype r.Dns.Dns_wire.rdata));
    add_u16 buf 1;
    add_u32 buf r.Dns.Dns_wire.ttl;
    let scratch = Buffer.create 32 in
    write_rdata ~pos_base:(Buffer.length buf + 2) scratch table r.Dns.Dns_wire.rdata;
    add_u16 buf (Buffer.length scratch);
    Buffer.add_buffer buf scratch

  let rcode_to_int = function
    | Dns.Dns_wire.No_error -> 0
    | Format_error -> 1
    | Server_failure -> 2
    | Name_error -> 3
    | Not_implemented -> 4
    | Refused -> 5

  let encode (msg : Dns.Dns_wire.message) =
    let buf = Buffer.create 256 and table = Hashtbl.create 17 in
    let f = msg.Dns.Dns_wire.flags in
    add_u16 buf msg.Dns.Dns_wire.id;
    add_u16 buf
      ((if f.Dns.Dns_wire.qr then 0x8000 else 0)
      lor (f.Dns.Dns_wire.opcode lsl 11)
      lor (if f.Dns.Dns_wire.aa then 0x0400 else 0)
      lor (if f.Dns.Dns_wire.tc then 0x0200 else 0)
      lor (if f.Dns.Dns_wire.rd then 0x0100 else 0)
      lor (if f.Dns.Dns_wire.ra then 0x0080 else 0)
      lor rcode_to_int f.Dns.Dns_wire.rcode);
    add_u16 buf (List.length msg.Dns.Dns_wire.questions);
    add_u16 buf (List.length msg.Dns.Dns_wire.answers);
    add_u16 buf (List.length msg.Dns.Dns_wire.authorities);
    add_u16 buf (List.length msg.Dns.Dns_wire.additionals);
    List.iter
      (fun (q : Dns.Dns_wire.question) ->
        write_name buf table q.Dns.Dns_wire.qname;
        add_u16 buf (Dns.Dns_wire.qtype_to_int q.Dns.Dns_wire.qtype);
        add_u16 buf 1)
      msg.Dns.Dns_wire.questions;
    List.iter (write_rr buf table) msg.Dns.Dns_wire.answers;
    List.iter (write_rr buf table) msg.Dns.Dns_wire.authorities;
    List.iter (write_rr buf table) msg.Dns.Dns_wire.additionals;
    Buffer.contents buf
end

(* Names over a small label pool, so suffixes repeat and compression
   fires; messages with 0-3 questions and 0-6 RRs of every rdata type. *)
let gen_message =
  let open QCheck.Gen in
  let gen_name =
    map of_labels
      (list_size (int_range 0 4) (oneofl [ "a"; "www"; "mail"; "Example"; "com"; "x-1"; "zone" ]))
  in
  let u32 = map (fun i -> i land 0xFFFFFFFF) (int_bound 0x3FFFFFFF) in
  let gen_rdata =
    oneof
      [
        map (fun i -> Dns.Dns_wire.A_data (Netstack.Ipaddr.of_int32 (Int32.of_int i))) u32;
        map (fun n -> Dns.Dns_wire.NS_data n) gen_name;
        map (fun n -> Dns.Dns_wire.CNAME_data n) gen_name;
        map (fun n -> Dns.Dns_wire.PTR_data n) gen_name;
        map2 (fun p n -> Dns.Dns_wire.MX_data (p, n)) (int_bound 0xffff) gen_name;
        map (fun s -> Dns.Dns_wire.TXT_data s) (string_size ~gen:printable (int_range 0 600));
        map (fun s -> Dns.Dns_wire.AAAA_data s) (string_size (return 16));
        map (fun s -> Dns.Dns_wire.Raw_data (99, s)) (string_size (int_range 0 40));
        map3
          (fun (mname, rname) serial (refresh, retry, expire, minimum) ->
            Dns.Dns_wire.SOA_data { Dns.Dns_wire.mname; rname; serial; refresh; retry; expire; minimum })
          (pair gen_name gen_name) u32 (quad u32 u32 u32 u32);
      ]
  in
  let gen_rr = map3 (fun name ttl rdata -> { Dns.Dns_wire.name; ttl; rdata }) gen_name u32 gen_rdata in
  let gen_qtype =
    oneofl Dns.Dns_wire.[ A; NS; CNAME; SOA; PTR; MX; TXT; AAAA; ANY; Unknown_qtype 99 ]
  in
  let gen_flags =
    map
      (fun ((qr, aa, tc, rd), (ra, opcode, rcode)) ->
        { Dns.Dns_wire.qr; opcode; aa; tc; rd; ra; rcode })
      (pair (quad bool bool bool bool)
         (triple bool (int_bound 15)
            (oneofl
               Dns.Dns_wire.[ No_error; Format_error; Server_failure; Name_error; Not_implemented; Refused ])))
  in
  let rrs n = list_size (int_range 0 n) gen_rr in
  map
    (fun ((id, flags), questions, (answers, authorities, additionals)) ->
      { Dns.Dns_wire.id; flags; questions; answers; authorities; additionals })
    (triple (pair (int_bound 0xffff) gen_flags)
       (list_size (int_range 0 3) (map2 (fun qname qtype -> { Dns.Dns_wire.qname; qtype }) gen_name gen_qtype))
       (triple (rrs 2) (rrs 2) (rrs 2)))

let print_message m = String.escaped (Bytestruct.to_string (Dns.Dns_wire.encode m))

let prop_encode_matches_oracle =
  qtest ~count:300 "encode matches the list-based encoder"
    (QCheck.make ~print:print_message gen_message)
    (fun msg ->
      let expected = Oracle.encode msg in
      List.for_all
        (fun (_, impl) -> Bytestruct.to_string (Dns.Dns_wire.encode ~impl msg) = expected)
        compression_impls)

let prop_decode_encode =
  qtest ~count:300 "decode inverts encode"
    (QCheck.make ~print:print_message gen_message)
    (fun msg -> Dns.Dns_wire.decode (Dns.Dns_wire.encode msg) = msg)

(* A query (id 1, RD) whose questions have the hand-built QNAMEs given,
   each of type A. *)
let raw_query qnames =
  let b = Buffer.create 64 in
  Buffer.add_string b "\x00\x01\x01\x00\x00";
  Buffer.add_char b (Char.chr (List.length qnames));
  Buffer.add_string b "\x00\x00\x00\x00\x00\x00";
  List.iter (fun q -> Buffer.add_string b q; Buffer.add_string b "\x00\x01\x00\x01") qnames;
  bs (Buffer.contents b)

let label63 c = "\x3f" ^ String.make 63 c

let test_wire_decode_rejects_reserved_label () =
  List.iter
    (fun len ->
      let qname = String.make 1 (Char.chr len) ^ String.make len 'a' ^ "\x00" in
      match Dns.Dns_wire.decode (raw_query [ qname ]) with
      | exception Dns.Dns_wire.Decode_error _ -> ()
      | _ -> Alcotest.failf "label length byte 0x%02x accepted" len)
    [ 0x40; 0x80; 0xBF ]

let test_wire_decode_rejects_long_name () =
  let reject what q =
    match Dns.Dns_wire.decode (raw_query q) with
    | exception Dns.Dns_wire.Decode_error _ -> ()
    | _ -> Alcotest.failf "%s accepted" what
  in
  let three = label63 'a' ^ label63 'b' ^ label63 'c' in
  (match Dns.Dns_wire.decode (raw_query [ three ^ "\x3d" ^ String.make 61 'd' ^ "\x00" ]) with
  | { Dns.Dns_wire.questions = [ q ]; _ } ->
    check_int "255 octets decode" 255 (Dns.Dns_name.encoded_length q.Dns.Dns_wire.qname)
  | _ -> Alcotest.fail "expected one question");
  reject "256 octets" [ three ^ "\x3e" ^ String.make 62 'd' ^ "\x00" ];
  reject "321 octets" [ three ^ label63 'd' ^ label63 'e' ^ "\x00" ];
  (* the second name's 64 octets plus a pointer to the first's 192 *)
  reject "256 octets through a pointer" [ three ^ "\x00"; label63 'd' ^ "\xC0\x0C" ]

(* ---- zone files ---- *)

let zone_text =
  {|
$TTL 3600
$ORIGIN example.org.
@   IN SOA ns1 hostmaster (
        2013031600 ; serial
        7200 1800
        1209600 300 )
    IN NS ns1
ns1 IN A 10.1.0.1
www 3600 IN A 10.1.0.2
    IN A 10.1.0.3
ftp IN CNAME www
@   IN MX 10 mail.example.org.
mail IN A 10.1.0.4
txt IN TXT "hello world" ; comment
abs.example.net. IN A 192.168.0.1
|}

let test_zone_parse () =
  let z = Dns.Zone.parse ~origin:"example.org" zone_text in
  check_int "record count" 10 (List.length z.Dns.Zone.records);
  let find n =
    List.filter (fun (r : Dns.Dns_wire.rr) -> Dns.Dns_name.equal r.Dns.Dns_wire.name (name n)) z.Dns.Zone.records
  in
  (match find "example.org" with
  | soa :: _ -> (
    match soa.Dns.Dns_wire.rdata with
    | Dns.Dns_wire.SOA_data s ->
      check_int "serial" 2013031600 s.Dns.Dns_wire.serial;
      check_string "mname" "ns1.example.org" (Dns.Dns_name.to_string s.Dns.Dns_wire.mname)
    | _ -> Alcotest.fail "first example.org record should be SOA")
  | [] -> Alcotest.fail "SOA missing");
  check_int "www has two A records (name continuation)" 2 (List.length (find "www.example.org"));
  (match find "ftp.example.org" with
  | [ { Dns.Dns_wire.rdata = Dns.Dns_wire.CNAME_data t; _ } ] ->
    check_string "relative cname target" "www.example.org" (Dns.Dns_name.to_string t)
  | _ -> Alcotest.fail "ftp CNAME");
  (match find "txt.example.org" with
  | [ { Dns.Dns_wire.rdata = Dns.Dns_wire.TXT_data s; _ } ] ->
    check_string "quoted txt with comment stripped" "hello world" s
  | _ -> Alcotest.fail "txt");
  match find "abs.example.net" with
  | [ _ ] -> ()
  | _ -> Alcotest.fail "absolute name kept out of origin"

let test_zone_parse_errors () =
  (match Dns.Zone.parse ~origin:"x" "foo IN BOGUS data" with
  | exception Dns.Zone.Parse_error _ -> ()
  | _ -> Alcotest.fail "unknown rtype");
  match Dns.Zone.parse ~origin:"x" "a IN SOA only three (" with
  | exception Dns.Zone.Parse_error _ -> ()
  | _ -> Alcotest.fail "unbalanced parens"

let test_zone_name_limits () =
  let line_of text =
    match Dns.Zone.parse ~origin:"example.org" text with
    | exception Dns.Zone.Parse_error (line, _) -> line
    | _ -> 0
  in
  let ok = "ok IN A 10.0.0.1\n" in
  check_int "empty label" 2 (line_of (ok ^ "a..b IN A 10.0.0.2\n"));
  check_int "64-octet label" 2 (line_of (ok ^ String.make 64 'a' ^ " IN A 10.0.0.2\n"));
  (* 4 x 60-octet labels are 244 octets, 257 with example.org *)
  let long = String.concat "." (List.init 4 (fun _ -> String.make 60 'a')) in
  check_int "over 255 octets under the origin" 3 (line_of (ok ^ ok ^ long ^ " IN A 10.0.0.2\n"));
  check_int "rdata name" 2 (line_of (ok ^ "www IN CNAME a..b\n"));
  check_int "$ORIGIN" 1 (line_of "$ORIGIN a..b.\n")

let test_zone_synthesize_and_roundtrip () =
  let z = Dns.Zone.synthesize ~origin:"bench.zone" ~entries:50 in
  check_int "soa+ns+nsA+50" 53 (List.length z.Dns.Zone.records);
  let reparsed = Dns.Zone.parse ~origin:"bench.zone" (Dns.Zone.to_string z) in
  check_int "roundtrip count" 53 (List.length reparsed.Dns.Zone.records)

(* ---- database ---- *)

let db () = Dns.Db.of_zone (Dns.Zone.parse ~origin:"example.org" zone_text)

let test_db_lookup_a () =
  match Dns.Db.lookup (db ()) ~qname:(name "www.example.org") ~qtype:Dns.Dns_wire.A with
  | Dns.Db.Answers rrs -> check_int "two A records" 2 (List.length rrs)
  | _ -> Alcotest.fail "expected answers"

let test_db_cname_chase () =
  match Dns.Db.lookup (db ()) ~qname:(name "ftp.example.org") ~qtype:Dns.Dns_wire.A with
  | Dns.Db.Answers rrs ->
    check_int "cname + 2 a records" 3 (List.length rrs);
    (match rrs with
    | { Dns.Dns_wire.rdata = Dns.Dns_wire.CNAME_data _; _ } :: _ -> ()
    | _ -> Alcotest.fail "cname first")
  | _ -> Alcotest.fail "expected chased answers"

let test_db_nxdomain_nodata () =
  (match Dns.Db.lookup (db ()) ~qname:(name "ghost.example.org") ~qtype:Dns.Dns_wire.A with
  | Dns.Db.Nx_domain soa -> (
    match soa.Dns.Dns_wire.rdata with Dns.Dns_wire.SOA_data _ -> () | _ -> Alcotest.fail "soa")
  | _ -> Alcotest.fail "expected nxdomain");
  match Dns.Db.lookup (db ()) ~qname:(name "www.example.org") ~qtype:Dns.Dns_wire.MX with
  | Dns.Db.No_data _ -> ()
  | _ -> Alcotest.fail "expected nodata"

let test_db_not_authoritative () =
  match Dns.Db.lookup (db ()) ~qname:(name "www.google.com") ~qtype:Dns.Dns_wire.A with
  | Dns.Db.Not_authoritative -> ()
  | _ -> Alcotest.fail "expected refusal"

let test_db_answer_rcodes () =
  let d = db () in
  let q qname = { Dns.Dns_wire.qname = name qname; qtype = Dns.Dns_wire.A } in
  let m = Dns.Db.answer d ~id:7 (q "ghost.example.org") in
  check_bool "nxdomain rcode" true (m.Dns.Dns_wire.flags.Dns.Dns_wire.rcode = Dns.Dns_wire.Name_error);
  check_int "soa in authority" 1 (List.length m.Dns.Dns_wire.authorities);
  let ok = Dns.Db.answer d ~id:8 (q "www.example.org") in
  check_bool "aa set" true ok.Dns.Dns_wire.flags.Dns.Dns_wire.aa

(* ---- memo ---- *)

let test_memo () =
  let m = Dns.Memo.create () in
  check_bool "miss" true (Dns.Memo.find m ~qname:(name "a.b") ~qtype:Dns.Dns_wire.A = None);
  Dns.Memo.add m ~qname:(name "a.b") ~qtype:Dns.Dns_wire.A (bs "ENCODED");
  (match Dns.Memo.find m ~qname:(name "a.b") ~qtype:Dns.Dns_wire.A with
  | Some hit ->
    check_string "cached bytes" "ENCODED" (Bytestruct.to_string hit);
    (* mutating the hit must not poison the cache *)
    Bytestruct.set_uint8 hit 0 (Char.code 'X');
    (match Dns.Memo.find m ~qname:(name "a.b") ~qtype:Dns.Dns_wire.A with
    | Some again -> check_string "cache unpoisoned" "ENCODED" (Bytestruct.to_string again)
    | None -> Alcotest.fail "should still hit")
  | None -> Alcotest.fail "expected hit");
  check_bool "different qtype misses" true
    (Dns.Memo.find m ~qname:(name "a.b") ~qtype:Dns.Dns_wire.MX = None);
  check_int "hits" 2 (Dns.Memo.hits m);
  check_int "misses" 2 (Dns.Memo.misses m)

let test_memo_dotted_label_is_distinct () =
  let m = Dns.Memo.create () in
  let labels = of_labels in
  Dns.Memo.add m ~qname:(labels [ "a"; "b"; "example" ]) ~qtype:Dns.Dns_wire.A (bs "THREE LABELS");
  check_bool "a label holding a dot is another name" true
    (Dns.Memo.find m ~qname:(labels [ "a.b"; "example" ]) ~qtype:Dns.Dns_wire.A = None);
  Dns.Memo.add m ~qname:(labels [ "a.b"; "example" ]) ~qtype:Dns.Dns_wire.A (bs "TWO LABELS");
  match Dns.Memo.find m ~qname:(labels [ "a"; "b"; "example" ]) ~qtype:Dns.Dns_wire.A with
  | Some hit -> check_string "first entry kept" "THREE LABELS" (Bytestruct.to_string hit)
  | None -> Alcotest.fail "expected hit"

(* One table entry per name, one response per qtype inside it: [entries]
   still counts (name, qtype) pairs, and replacing a response adds none. *)
let test_memo_entries_count_pairs () =
  let m = Dns.Memo.create () in
  Dns.Memo.add m ~qname:(name "a.b") ~qtype:Dns.Dns_wire.A (bs "A1");
  Dns.Memo.add m ~qname:(name "a.b") ~qtype:Dns.Dns_wire.MX (bs "MX");
  Dns.Memo.add m ~qname:(name "c.d") ~qtype:Dns.Dns_wire.A (bs "CD");
  Dns.Memo.add m ~qname:(name "a.b") ~qtype:Dns.Dns_wire.A (bs "A2");
  check_int "three (name, qtype) pairs" 3 (Dns.Memo.entries m);
  let get qname qtype =
    Option.map Bytestruct.to_string (Dns.Memo.find m ~qname:(name qname) ~qtype)
  in
  check Alcotest.(option string) "replaced" (Some "A2") (get "a.b" Dns.Dns_wire.A);
  check Alcotest.(option string) "other qtype kept" (Some "MX") (get "a.b" Dns.Dns_wire.MX);
  check Alcotest.(option string) "other name" (Some "CD") (get "c.d" Dns.Dns_wire.A);
  check Alcotest.(option string) "absent qtype" None (get "c.d" Dns.Dns_wire.MX)

(* ---- server over the simulated network ---- *)

let dns_world ~engine =
  let w = create () in
  let server = host w ~platform:Platform.xen_extent ~name:"dns" ~ip:"10.0.0.53" () in
  let client = host w ~platform:Platform.linux_native ~name:"resolver" ~ip:"10.0.0.9" () in
  let zone = Dns.Zone.synthesize ~origin:"test.zone" ~entries:100 in
  let srv =
    Core.Apps.Net.Dns.create w.sim ~dom:server.dom ~udp:(Netstack.Stack.udp server.stack)
      ~db:(Dns.Db.of_zone zone) ~engine ()
  in
  (w, server, client, Core.Apps.Net.Dns.Client.create w.sim (Netstack.Stack.udp client.stack), srv)

let query w resolver server_ip qname =
  run w
    (Core.Apps.Net.Dns.Client.query resolver ~server:server_ip ~qname:(name qname)
       ~qtype:Dns.Dns_wire.A ())

let test_server_end_to_end () =
  let w, server, _, resolver, srv = dns_world ~engine:(Dns.Server.Mirage { memoize = true }) in
  (match query w resolver (Netstack.Stack.address server.stack) "host-42.test.zone" with
  | Some reply -> (
    match reply.Dns.Dns_wire.answers with
    | [ { Dns.Dns_wire.rdata = Dns.Dns_wire.A_data ip; _ } ] ->
      check_string "right address" "10.0.0.42" (Netstack.Ipaddr.to_string ip)
    | _ -> Alcotest.fail "expected one A record")
  | None -> Alcotest.fail "query timed out");
  (match query w resolver (Netstack.Stack.address server.stack) "nothere.test.zone" with
  | Some reply ->
    check_bool "nxdomain" true
      (reply.Dns.Dns_wire.flags.Dns.Dns_wire.rcode = Dns.Dns_wire.Name_error)
  | None -> Alcotest.fail "nxdomain query timed out");
  check_int "served" 2 (Core.Apps.Net.Dns.queries_served srv)

let test_server_memoization_hits () =
  let w, server, _, resolver, srv = dns_world ~engine:(Dns.Server.Mirage { memoize = true }) in
  let ip = Netstack.Stack.address server.stack in
  let r1 = query w resolver ip "host-7.test.zone" in
  let r2 = query w resolver ip "host-7.test.zone" in
  let r3 = query w resolver ip "host-7.test.zone" in
  check_bool "all answered" true (r1 <> None && r2 <> None && r3 <> None);
  (* distinct transaction ids patched correctly *)
  (match (r1, r3) with
  | Some a, Some b -> check_bool "ids differ" true (a.Dns.Dns_wire.id <> b.Dns.Dns_wire.id)
  | _ -> ());
  match Core.Apps.Net.Dns.memo srv with
  | Some cache ->
    check_int "two hits" 2 (Dns.Memo.hits cache);
    check_int "one miss" 1 (Dns.Memo.misses cache)
  | None -> Alcotest.fail "memo expected"

(* A resolver owns its id sequence: two identical fresh worlds, run one
   after the other in this process, issue the same first query id. Two
   queries in flight at once from one resolver use distinct source ports,
   so both are answered. *)
let test_resolver_ids_per_world () =
  let first_id () =
    let w, server, _, resolver, _ = dns_world ~engine:(Dns.Server.Mirage { memoize = false }) in
    match query w resolver (Netstack.Stack.address server.stack) "host-1.test.zone" with
    | Some reply -> reply.Dns.Dns_wire.id
    | None -> Alcotest.fail "query timed out"
  in
  let a = first_id () in
  check_int "same first id in a fresh world" a (first_id ());
  let w, server, _, resolver, _ = dns_world ~engine:(Dns.Server.Mirage { memoize = false }) in
  let ask n =
    Core.Apps.Net.Dns.Client.query resolver ~server:(Netstack.Stack.address server.stack)
      ~qname:(name n) ~qtype:Dns.Dns_wire.A ()
  in
  let r1, r2 = run w (P.both (ask "host-1.test.zone") (ask "host-2.test.zone")) in
  check_bool "concurrent queries both answered" true (r1 <> None && r2 <> None)

let test_server_bad_packet_counted () =
  let w, server, client, _, srv = dns_world ~engine:(Dns.Server.Mirage { memoize = false }) in
  ignore
    (run w
       (Netstack.Udp.sendto (Netstack.Stack.udp client.stack) ~src_port:3333
          ~dst:(Netstack.Stack.address server.stack) ~dst_port:53 (bs "not dns")));
  Engine.Sim.run w.sim;
  check_int "decode failure counted" 1 (Core.Apps.Net.Dns.decode_failures srv)

let test_server_reserved_label_counted () =
  let w, server, client, resolver, srv = dns_world ~engine:(Dns.Server.Mirage { memoize = true }) in
  let ip = Netstack.Stack.address server.stack in
  (* a 64-octet label under the origin: length byte 0x40 is reserved *)
  let crafted = raw_query [ "\x40" ^ String.make 64 'a' ^ "\x04test\x04zone\x00" ] in
  ignore
    (run w
       (Netstack.Udp.sendto (Netstack.Stack.udp client.stack) ~src_port:3333 ~dst:ip ~dst_port:53
          crafted));
  Engine.Sim.run w.sim;
  check_int "crafted query counted" 1 (Core.Apps.Net.Dns.decode_failures srv);
  match query w resolver ip "host-1.test.zone" with
  | Some reply -> check_int "valid query answered" 1 (List.length reply.Dns.Dns_wire.answers)
  | None -> Alcotest.fail "valid query after the crafted one timed out"

let test_server_engines_have_calibrated_costs () =
  (* Per-query engine cost ordering behind Figure 10: memoised Mirage
     cheapest, then NSD, then BIND, then unmemoised Mirage. *)
  let cost engine memo_hit =
    Dns.Server.query_cost_ns engine ~zone_entries:1000 ~platform:Platform.xen_extent ~memo_hit
  in
  let memo = cost (Dns.Server.Mirage { memoize = true }) true in
  let nomemo = cost (Dns.Server.Mirage { memoize = false }) false in
  let bind = cost Dns.Server.Bind_like false in
  let nsd = cost Dns.Server.Nsd_like false in
  check_bool "memo < nsd" true (memo < nsd);
  check_bool "nsd < bind" true (nsd < bind);
  check_bool "bind < nomemo" true (bind < nomemo);
  (* BIND's small-zone anomaly (paper footnote 6) *)
  let bind_small = Dns.Server.query_cost_ns Dns.Server.Bind_like ~zone_entries:100
      ~platform:Platform.linux_pv ~memo_hit:false in
  let bind_big = Dns.Server.query_cost_ns Dns.Server.Bind_like ~zone_entries:10_000
      ~platform:Platform.linux_pv ~memo_hit:false in
  check_bool "bind slower on small zones" true (bind_small > bind_big)

let () =
  Alcotest.run "dns"
    [
      ( "names",
        [
          Alcotest.test_case "parsing" `Quick test_name_parsing;
          Alcotest.test_case "suffixes" `Quick test_name_suffixes;
          Alcotest.test_case "suffix at a label boundary" `Quick test_name_suffix_label_boundary;
          Alcotest.test_case "empty label rejected" `Quick test_name_empty_label;
          Alcotest.test_case "label over 63 octets rejected" `Quick test_name_long_label;
          Alcotest.test_case "name over 255 octets rejected" `Quick test_name_long_name;
        ] );
      ( "compression",
        [
          Alcotest.test_case "find longest" `Quick test_compress_find_longest;
          Alcotest.test_case "high offsets ignored" `Quick test_compress_ignores_high_offsets;
          prop_compress_impls_agree;
        ] );
      ( "wire",
        [
          Alcotest.test_case "roundtrip with compression" `Quick test_wire_roundtrip_with_compression;
          Alcotest.test_case "compression shrinks" `Quick test_wire_compression_shrinks;
          Alcotest.test_case "impls byte-identical" `Quick test_wire_both_impls_byte_identical;
          Alcotest.test_case "rejects garbage" `Quick test_wire_decode_rejects_garbage;
          Alcotest.test_case "patch id" `Quick test_patch_id;
          Alcotest.test_case "long TXT chunking" `Quick test_wire_long_txt_chunks;
          prop_wire_roundtrip;
          prop_encode_matches_oracle;
          prop_decode_encode;
          Alcotest.test_case "rejects reserved label types" `Quick test_wire_decode_rejects_reserved_label;
          Alcotest.test_case "rejects names over 255 octets" `Quick test_wire_decode_rejects_long_name;
        ] );
      ( "zone",
        [
          Alcotest.test_case "parse" `Quick test_zone_parse;
          Alcotest.test_case "parse errors" `Quick test_zone_parse_errors;
          Alcotest.test_case "synthesize + roundtrip" `Quick test_zone_synthesize_and_roundtrip;
          Alcotest.test_case "name limits are parse errors" `Quick test_zone_name_limits;
        ] );
      ( "db",
        [
          Alcotest.test_case "lookup A" `Quick test_db_lookup_a;
          Alcotest.test_case "cname chase" `Quick test_db_cname_chase;
          Alcotest.test_case "nxdomain/nodata" `Quick test_db_nxdomain_nodata;
          Alcotest.test_case "not authoritative" `Quick test_db_not_authoritative;
          Alcotest.test_case "answer rcodes" `Quick test_db_answer_rcodes;
        ] );
      ( "memo",
        [ Alcotest.test_case "cache behaviour" `Quick test_memo;
          Alcotest.test_case "dotted label is distinct" `Quick test_memo_dotted_label_is_distinct;
          Alcotest.test_case "entries count (name, qtype) pairs" `Quick
            test_memo_entries_count_pairs;
        ] );
      ( "server",
        [
          Alcotest.test_case "end to end" `Quick test_server_end_to_end;
          Alcotest.test_case "memoization hits" `Quick test_server_memoization_hits;
          Alcotest.test_case "bad packet counted" `Quick test_server_bad_packet_counted;
          Alcotest.test_case "engine cost calibration" `Quick test_server_engines_have_calibrated_costs;
          Alcotest.test_case "crafted label counted, then served" `Quick test_server_reserved_label_counted;
          Alcotest.test_case "resolver ids are per world" `Quick test_resolver_ids_per_world;
        ] );
    ]
