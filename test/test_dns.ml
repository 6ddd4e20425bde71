open Testlib
module P = Mthread.Promise

let name = Dns.Dns_name.of_string

(* ---- names ---- *)

let test_name_parsing () =
  Alcotest.(check (list string)) "labels" [ "www"; "example"; "com" ] (name "www.Example.COM");
  Alcotest.(check (list string)) "trailing dot" [ "a"; "b" ] (name "a.b.");
  Alcotest.(check (list string)) "root" [] (name ".");
  check_string "to_string" "www.example.com" (Dns.Dns_name.to_string (name "www.example.com"));
  check_string "root prints dot" "." (Dns.Dns_name.to_string [])

let test_name_suffixes () =
  Alcotest.(check (list (list string)))
    "suffixes longest first"
    [ [ "a"; "b"; "c" ]; [ "b"; "c" ]; [ "c" ] ]
    (Dns.Dns_name.suffixes (name "a.b.c"));
  check_bool "is_suffix" true (Dns.Dns_name.is_suffix ~suffix:(name "example.com") (name "www.example.com"));
  check_bool "not suffix" false (Dns.Dns_name.is_suffix ~suffix:(name "example.org") (name "www.example.com"));
  check_int "encoded length" 17 (Dns.Dns_name.encoded_length (name "www.example.com"))

(* ---- compression ---- *)

let compression_impls = [ ("hashtable", Dns.Compress.Hashtable); ("fmap", Dns.Compress.Fmap) ]

let test_compress_find_longest () =
  List.iter
    (fun (label, impl) ->
      let t = Dns.Compress.create impl in
      Dns.Compress.add t (name "example.com") 12;
      Dns.Compress.add t (name "www.example.com") 30;
      (match Dns.Compress.find_longest t (name "mail.example.com") with
      | Some (suffix, off, leading) ->
        check_string (label ^ " longest suffix") "example.com" (Dns.Dns_name.to_string suffix);
        check_int (label ^ " offset") 12 off;
        Alcotest.(check (list string)) (label ^ " leading") [ "mail" ] leading
      | None -> Alcotest.fail (label ^ ": expected a match"));
      (match Dns.Compress.find_longest t (name "www.example.com") with
      | Some (suffix, off, leading) ->
        check_string (label ^ " exact") "www.example.com" (Dns.Dns_name.to_string suffix);
        check_int (label ^ " exact offset") 30 off;
        check_int (label ^ " no leading") 0 (List.length leading)
      | None -> Alcotest.fail (label ^ ": exact match expected"));
      check_bool (label ^ " miss") true (Dns.Compress.find_longest t (name "other.org") = None))
    compression_impls

let test_compress_ignores_high_offsets () =
  List.iter
    (fun (_, impl) ->
      let t = Dns.Compress.create impl in
      Dns.Compress.add t (name "far.example") 0x4000;
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
          Dns.Compress.add ht (mk i) off;
          Dns.Compress.add fm (mk i) off)
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
    Bytestruct.set_char hit 0 'X';
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
  Dns.Memo.add m ~qname:[ "a"; "b"; "example" ] ~qtype:Dns.Dns_wire.A (bs "THREE LABELS");
  check_bool "a label holding a dot is another name" true
    (Dns.Memo.find m ~qname:[ "a.b"; "example" ] ~qtype:Dns.Dns_wire.A = None);
  Dns.Memo.add m ~qname:[ "a.b"; "example" ] ~qtype:Dns.Dns_wire.A (bs "TWO LABELS");
  match Dns.Memo.find m ~qname:[ "a"; "b"; "example" ] ~qtype:Dns.Dns_wire.A with
  | Some hit -> check_string "first entry kept" "THREE LABELS" (Bytestruct.to_string hit)
  | None -> Alcotest.fail "expected hit"

(* ---- server over the simulated network ---- *)

let dns_world ~engine =
  let w = make_world () in
  let server = make_host w ~platform:Platform.xen_extent ~name:"dns" ~ip:"10.0.0.53" () in
  let client = make_host w ~platform:Platform.linux_native ~name:"resolver" ~ip:"10.0.0.9" () in
  let zone = Dns.Zone.synthesize ~origin:"test.zone" ~entries:100 in
  let srv =
    Core.Apps.Net.Dns.create w.sim ~dom:server.dom ~udp:(Netstack.Stack.udp server.stack)
      ~db:(Dns.Db.of_zone zone) ~engine ()
  in
  (w, server, client, srv)

let query w client server_ip qname =
  run w
    (Core.Apps.Net.Dns.Client.query w.sim (Netstack.Stack.udp client.stack) ~server:server_ip
       ~qname:(name qname) ~qtype:Dns.Dns_wire.A ())

let test_server_end_to_end () =
  let w, server, client, srv = dns_world ~engine:(Dns.Server.Mirage { memoize = true }) in
  (match query w client (Netstack.Stack.address server.stack) "host-42.test.zone" with
  | Some reply -> (
    match reply.Dns.Dns_wire.answers with
    | [ { Dns.Dns_wire.rdata = Dns.Dns_wire.A_data ip; _ } ] ->
      check_string "right address" "10.0.0.42" (Netstack.Ipaddr.to_string ip)
    | _ -> Alcotest.fail "expected one A record")
  | None -> Alcotest.fail "query timed out");
  (match query w client (Netstack.Stack.address server.stack) "nothere.test.zone" with
  | Some reply ->
    check_bool "nxdomain" true
      (reply.Dns.Dns_wire.flags.Dns.Dns_wire.rcode = Dns.Dns_wire.Name_error)
  | None -> Alcotest.fail "nxdomain query timed out");
  check_int "served" 2 (Core.Apps.Net.Dns.queries_served srv)

let test_server_memoization_hits () =
  let w, server, client, srv = dns_world ~engine:(Dns.Server.Mirage { memoize = true }) in
  let ip = Netstack.Stack.address server.stack in
  let r1 = query w client ip "host-7.test.zone" in
  let r2 = query w client ip "host-7.test.zone" in
  let r3 = query w client ip "host-7.test.zone" in
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

let test_server_bad_packet_counted () =
  let w, server, client, srv = dns_world ~engine:(Dns.Server.Mirage { memoize = false }) in
  ignore
    (run w
       (Netstack.Udp.sendto (Netstack.Stack.udp client.stack) ~src_port:3333
          ~dst:(Netstack.Stack.address server.stack) ~dst_port:53 (bs "not dns")));
  Engine.Sim.run w.sim;
  check_int "decode failure counted" 1 (Core.Apps.Net.Dns.decode_failures srv)

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
        ] );
      ( "zone",
        [
          Alcotest.test_case "parse" `Quick test_zone_parse;
          Alcotest.test_case "parse errors" `Quick test_zone_parse_errors;
          Alcotest.test_case "synthesize + roundtrip" `Quick test_zone_synthesize_and_roundtrip;
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
          Alcotest.test_case "dotted label is distinct" `Quick test_memo_dotted_label_is_distinct ] );
      ( "server",
        [
          Alcotest.test_case "end to end" `Quick test_server_end_to_end;
          Alcotest.test_case "memoization hits" `Quick test_server_memoization_hits;
          Alcotest.test_case "bad packet counted" `Quick test_server_bad_packet_counted;
          Alcotest.test_case "engine cost calibration" `Quick test_server_engines_have_calibrated_costs;
        ] );
    ]
