open Testlib
module P = Mthread.Promise
open P.Infix

(* ---- Pagetable / sealing (paper 2.3.3) ---- *)

let pt_with_regions () =
  let pt = Xensim.Pagetable.create () in
  Xensim.Pagetable.add_region pt ~va:0x1000 ~len:0x1000 ~perm:Xensim.Pagetable.Read_exec
    ~label:"text";
  Xensim.Pagetable.add_region pt ~va:0x3000 ~len:0x2000 ~perm:Xensim.Pagetable.Read_write
    ~label:"data";
  pt

let test_pt_basic () =
  let pt = pt_with_regions () in
  check_bool "text executable" true (Xensim.Pagetable.can_exec pt ~va:0x1800);
  check_bool "text not writable" false (Xensim.Pagetable.can_write pt ~va:0x1800);
  check_bool "data writable" true (Xensim.Pagetable.can_write pt ~va:0x3000);
  check_bool "data not executable" false (Xensim.Pagetable.can_exec pt ~va:0x3000);
  check_bool "unmapped" false (Xensim.Pagetable.can_exec pt ~va:0x9000)

let test_pt_overlap_rejected () =
  let pt = pt_with_regions () in
  match
    Xensim.Pagetable.add_region pt ~va:0x1800 ~len:0x1000 ~perm:Xensim.Pagetable.Read_only
      ~label:"overlap"
  with
  | exception Xensim.Pagetable.Overlap _ -> ()
  | _ -> Alcotest.fail "overlap should be rejected"

(* Five disjoint regions inserted in every rotation and in reverse: an
   insert that overlaps one or several of them is rejected with the
   same message whatever the insertion order (the lowest-addressed
   region it overlaps is named), and lookups agree. *)
let test_pt_overlap_order_independent () =
  let module Pt = Xensim.Pagetable in
  let regions =
    [ (0x1000, 0x1000, "a"); (0x3000, 0x2000, "b"); (0x6000, 0x1000, "c"); (0x8000, 0x3000, "d");
      (0xc000, 0x1000, "e") ]
  in
  let orders =
    List.init (List.length regions) (fun k ->
        List.filteri (fun i _ -> i >= k) regions @ List.filteri (fun i _ -> i < k) regions)
    @ [ List.rev regions ]
  in
  let build order =
    let pt = Pt.create () in
    List.iter (fun (va, len, label) -> Pt.add_region pt ~va ~len ~perm:Pt.Read_write ~label) order;
    pt
  in
  let overlap_msg pt ~va ~len =
    match Pt.add_region pt ~va ~len ~perm:Pt.Read_only ~label:"new" with
    | exception Pt.Overlap msg -> msg
    | () -> Alcotest.failf "[0x%x,0x%x) should overlap" va (va + len)
  in
  let probes =
    [
      (0x1800, 0x100, "region new [0x1800,0x1900) overlaps a [0x1000,0x2000)");
      (0x4fff, 0x1, "region new [0x4fff,0x5000) overlaps b [0x3000,0x5000)");
      (0x1800, 0x5000, "region new [0x1800,0x6800) overlaps a [0x1000,0x2000)");
      (0x0, 0x10000, "region new [0x0,0x10000) overlaps a [0x1000,0x2000)");
      (0x5000, 0x4000, "region new [0x5000,0x9000) overlaps c [0x6000,0x7000)");
      (0xa000, 0x3000, "region new [0xa000,0xd000) overlaps d [0x8000,0xb000)");
    ]
  in
  List.iteri
    (fun i order ->
      let pt = build order in
      List.iter
        (fun (va, len, want) ->
          check_string (Printf.sprintf "order %d: overlap at 0x%x" i va) want (overlap_msg pt ~va ~len))
        probes;
      (* adjacent and in-gap inserts are not overlaps *)
      Pt.add_region pt ~va:0x2000 ~len:0x1000 ~perm:Pt.Read_exec ~label:"gap";
      Pt.add_region pt ~va:0xd000 ~len:0x1000 ~perm:Pt.Read_exec ~label:"tail";
      List.iter
        (fun (va, w, x) ->
          check_bool (Printf.sprintf "order %d: write 0x%x" i va) w (Pt.can_write pt ~va);
          check_bool (Printf.sprintf "order %d: exec 0x%x" i va) x (Pt.can_exec pt ~va))
        [
          (0x0, false, false); (0x1000, true, false); (0x1fff, true, false); (0x2000, false, true);
          (0x3000, true, false); (0x5000, false, false); (0xbfff, false, false);
          (0xc000, true, false); (0xdfff, false, true); (0xe000, false, false);
        ])
    orders

let test_seal_blocks_modification () =
  let pt = pt_with_regions () in
  Xensim.Pagetable.seal pt;
  check_bool "sealed" true (Xensim.Pagetable.is_sealed pt);
  (match
     Xensim.Pagetable.add_region pt ~va:0x10000 ~len:0x1000 ~perm:Xensim.Pagetable.Read_exec
       ~label:"inject"
   with
  | exception Xensim.Pagetable.Sealed_violation _ -> ()
  | _ -> Alcotest.fail "post-seal add_region must fail");
  match Xensim.Pagetable.set_perm pt ~va:0x3000 ~perm:Xensim.Pagetable.Read_exec with
  | exception Xensim.Pagetable.Sealed_violation _ -> ()
  | _ -> Alcotest.fail "post-seal set_perm must fail"

let test_seal_code_injection_scenario () =
  (* The attack the seal defends against: write shellcode into a fresh
     page, then try to make it executable. *)
  let pt = pt_with_regions () in
  Xensim.Pagetable.seal pt;
  (* attacker can still write through existing RW mappings... *)
  check_bool "data writable post-seal" true (Xensim.Pagetable.can_write pt ~va:0x3000);
  (* ...but that data can never become executable *)
  check_bool "data never executable" false (Xensim.Pagetable.can_exec pt ~va:0x3000);
  match
    Xensim.Pagetable.set_perm pt ~va:0x3000 ~perm:Xensim.Pagetable.Read_exec
  with
  | exception Xensim.Pagetable.Sealed_violation _ -> ()
  | _ -> Alcotest.fail "privilege escalation should be impossible"

let test_seal_allows_io_mappings () =
  (* Paper: I/O mappings stay legal post-seal if non-executable and
     non-overlapping. *)
  let pt = pt_with_regions () in
  Xensim.Pagetable.seal pt;
  Xensim.Pagetable.map_io pt ~va:0x100000 ~len:0x1000 ~label:"io";
  check_bool "io mapped" true (Xensim.Pagetable.can_write pt ~va:0x100000);
  check_bool "io not executable" false (Xensim.Pagetable.can_exec pt ~va:0x100000);
  match Xensim.Pagetable.map_io pt ~va:0x1000 ~len:0x1000 ~label:"shadow" with
  | exception Xensim.Pagetable.Overlap _ -> ()
  | _ -> Alcotest.fail "io mapping must not shadow existing pages"

let test_double_seal () =
  let pt = pt_with_regions () in
  Xensim.Pagetable.seal pt;
  match Xensim.Pagetable.seal pt with
  | exception Xensim.Pagetable.Sealed_violation _ -> ()
  | _ -> Alcotest.fail "double seal rejected"

let test_hypervisor_seal_requires_patch () =
  let w = create ~seal_patch:false () in
  let d = Xensim.Hypervisor.create_domain w.hv ~name:"g" ~mem_mib:16 ~platform:Platform.xen_extent () in
  match Xensim.Hypervisor.seal w.hv d with
  | exception Xensim.Hypervisor.Seal_unsupported -> ()
  | _ -> Alcotest.fail "unpatched hypervisor must refuse seal"

let test_hypervisor_seal_counts () =
  let w = create () in
  let d = Xensim.Hypervisor.create_domain w.hv ~name:"g" ~mem_mib:16 ~platform:Platform.xen_extent () in
  Xensim.Hypervisor.seal w.hv d;
  check_int "seal counted" 1 w.hv.Xensim.Hypervisor.stats.Xensim.Xstats.seals;
  check_bool "pagetable sealed" true (Xensim.Pagetable.is_sealed d.Xensim.Domain.pagetable)

(* ---- Domain table ---- *)

(* The table is a hashtable so boot storms don't scan: lookup must go
   negative the instant a domain is destroyed, [domain_count] must track
   exactly, and a stale handle to a reused id must not evict the new
   tenant. *)
let test_hypervisor_lookup_after_destroy () =
  let w = create () in
  let ds =
    List.init 50 (fun i ->
        Xensim.Hypervisor.create_domain w.hv ~name:(Printf.sprintf "g%d" i) ~mem_mib:16
          ~platform:Platform.xen_extent ())
  in
  check_int "all registered (plus dom0)" 51 (Xensim.Hypervisor.domain_count w.hv);
  List.iteri
    (fun i d ->
      if i mod 2 = 0 then Xensim.Hypervisor.destroy w.hv d)
    ds;
  check_int "destroyed domains deregistered" 26 (Xensim.Hypervisor.domain_count w.hv);
  List.iteri
    (fun i d ->
      let found = Xensim.Hypervisor.domain w.hv d.Xensim.Domain.id in
      if i mod 2 = 0 then check_bool "destroyed id not found" true (found = None)
      else
        match found with
        | Some x -> check_bool "survivor found by id" true (x == d)
        | None -> Alcotest.fail "live domain vanished from the table")
    ds;
  (* destroy is idempotent, and a stale destroy must not touch a reused id *)
  let victim = List.nth ds 1 in
  Xensim.Hypervisor.destroy w.hv victim;
  Xensim.Hypervisor.destroy w.hv victim;
  check_int "double destroy is a no-op" 25 (Xensim.Hypervisor.domain_count w.hv)

(* [domains] must iterate in creation (= id) order regardless of hash
   bucket layout — reports and the boot storm's schedule depend on it. *)
let test_hypervisor_domains_deterministic () =
  let w = create () in
  let ds =
    List.init 200 (fun i ->
        Xensim.Hypervisor.create_domain w.hv ~name:(Printf.sprintf "d%d" i) ~mem_mib:16
          ~platform:Platform.xen_extent ())
  in
  (* punch holes so the surviving id set is irregular *)
  List.iteri (fun i d -> if i mod 3 = 1 then Xensim.Hypervisor.destroy w.hv d) ds;
  let ids = List.map (fun d -> d.Xensim.Domain.id) (Xensim.Hypervisor.domains w.hv) in
  check (Alcotest.list Alcotest.int) "sorted by id" (List.sort compare ids) ids;
  let again = List.map (fun d -> d.Xensim.Domain.id) (Xensim.Hypervisor.domains w.hv) in
  check (Alcotest.list Alcotest.int) "iteration is stable" ids again

(* ---- Event channels ---- *)

let test_evtchn_notify () =
  let w = create () in
  let ev = w.hv.Xensim.Hypervisor.evtchn in
  let back = Xensim.Evtchn.alloc_unbound ev ~owner:0 in
  let front = Xensim.Evtchn.bind_interdomain ev ~local:1 ~remote_port:back in
  let hits = ref 0 in
  Xensim.Evtchn.set_handler ev back (fun () -> incr hits);
  Xensim.Evtchn.notify ev front;
  check_int "not yet delivered (latency)" 0 !hits;
  Engine.Sim.run w.sim;
  check_int "delivered" 1 !hits

let test_evtchn_bidirectional () =
  let w = create () in
  let ev = w.hv.Xensim.Hypervisor.evtchn in
  let back = Xensim.Evtchn.alloc_unbound ev ~owner:0 in
  let front = Xensim.Evtchn.bind_interdomain ev ~local:1 ~remote_port:back in
  let f_hits = ref 0 in
  Xensim.Evtchn.set_handler ev front (fun () -> incr f_hits);
  Xensim.Evtchn.notify ev back;
  Engine.Sim.run w.sim;
  check_int "reverse direction" 1 !f_hits

let test_evtchn_coalescing () =
  (* Multiple notifies while pending coalesce into one delivery. *)
  let w = create () in
  let ev = w.hv.Xensim.Hypervisor.evtchn in
  let back = Xensim.Evtchn.alloc_unbound ev ~owner:0 in
  let front = Xensim.Evtchn.bind_interdomain ev ~local:1 ~remote_port:back in
  let hits = ref 0 in
  Xensim.Evtchn.set_handler ev back (fun () -> incr hits);
  Xensim.Evtchn.notify ev front;
  Xensim.Evtchn.notify ev front;
  Xensim.Evtchn.notify ev front;
  Engine.Sim.run w.sim;
  check_int "coalesced delivery" 1 !hits;
  check_int "notifies counted" 3 w.hv.Xensim.Hypervisor.stats.Xensim.Xstats.evtchn_notifies

let test_evtchn_close () =
  let w = create () in
  let ev = w.hv.Xensim.Hypervisor.evtchn in
  let back = Xensim.Evtchn.alloc_unbound ev ~owner:0 in
  let front = Xensim.Evtchn.bind_interdomain ev ~local:1 ~remote_port:back in
  Xensim.Evtchn.close ev front;
  match Xensim.Evtchn.notify ev front with
  | exception Xensim.Evtchn.Invalid_port _ -> ()
  | _ -> Alcotest.fail "closed port unusable"

let test_evtchn_double_bind_rejected () =
  let w = create () in
  let ev = w.hv.Xensim.Hypervisor.evtchn in
  let back = Xensim.Evtchn.alloc_unbound ev ~owner:0 in
  ignore (Xensim.Evtchn.bind_interdomain ev ~local:1 ~remote_port:back);
  match Xensim.Evtchn.bind_interdomain ev ~local:2 ~remote_port:back with
  | exception Xensim.Evtchn.Invalid_port _ -> ()
  | _ -> Alcotest.fail "port cannot be bound twice"

(* ---- Grant tables ---- *)

let test_gnttab_map_is_zero_copy () =
  let w = create () in
  let gt = w.hv.Xensim.Hypervisor.gnttab in
  let page = bs "granted page contents" in
  let r = Xensim.Gnttab.grant_access gt ~dom:1 ~peer:2 ~writable:true page in
  let view = Xensim.Gnttab.map gt ~by:2 r in
  Bytestruct.set_uint8 view 0 (Char.code 'G');
  check_string "peer writes visible" "Granted page contents" (Bytestruct.to_string page);
  check_int "maps counted" 1 w.hv.Xensim.Hypervisor.stats.Xensim.Xstats.grant_maps;
  check_int "no copies" 0 w.hv.Xensim.Hypervisor.stats.Xensim.Xstats.grant_copies

let test_gnttab_permissions () =
  let w = create () in
  let gt = w.hv.Xensim.Hypervisor.gnttab in
  let page = Bytestruct.create 8 in
  let r = Xensim.Gnttab.grant_access gt ~dom:1 ~peer:2 ~writable:false page in
  (match Xensim.Gnttab.map gt ~by:3 r with
  | exception Xensim.Gnttab.Permission_denied _ -> ()
  | _ -> Alcotest.fail "wrong domain cannot map");
  match Xensim.Gnttab.map_rw gt ~by:2 r with
  | exception Xensim.Gnttab.Permission_denied _ -> ()
  | _ -> Alcotest.fail "read-only grant cannot be mapped rw"

let test_gnttab_busy_revocation () =
  let w = create () in
  let gt = w.hv.Xensim.Hypervisor.gnttab in
  let page = Bytestruct.create 8 in
  let r = Xensim.Gnttab.grant_access gt ~dom:1 ~peer:2 ~writable:true page in
  ignore (Xensim.Gnttab.map gt ~by:2 r);
  (match Xensim.Gnttab.end_access gt r with
  | exception Xensim.Gnttab.Grant_busy _ -> ()
  | _ -> Alcotest.fail "mapped grant cannot be revoked");
  Xensim.Gnttab.unmap gt ~by:2 r;
  Xensim.Gnttab.end_access gt r;
  check_int "no live grants" 0 (Xensim.Gnttab.active_grants gt);
  match Xensim.Gnttab.map gt ~by:2 r with
  | exception Xensim.Gnttab.Invalid_grant _ -> ()
  | _ -> Alcotest.fail "revoked grant unusable"

let test_gnttab_copy_ops () =
  let w = create () in
  let gt = w.hv.Xensim.Hypervisor.gnttab in
  let page = bs "SOURCE" in
  let r = Xensim.Gnttab.grant_access gt ~dom:1 ~peer:2 ~writable:true page in
  Xensim.Gnttab.copy_to gt ~by:2 r ~src:(bs "TARGET");
  check_string "copy in" "TARGET" (Bytestruct.to_string page);
  check_int "copies counted" 1 w.hv.Xensim.Hypervisor.stats.Xensim.Xstats.grant_copies

(* A deferred grant has no page until the grantee first touches it;
   then the device's one fill function supplies it, keyed by credit,
   exactly once. Revoking an untouched grant never fills. *)
let test_gnttab_deferred_fill () =
  let w = create () in
  let gt = w.hv.Xensim.Hypervisor.gnttab in
  let filled = ref [] in
  let fill key =
    filled := key :: !filled;
    bs (Printf.sprintf "page%02d" key)
  in
  let r5 = Xensim.Gnttab.grant_access_deferred gt ~dom:1 ~peer:2 ~writable:true ~fill 5 in
  let r6 = Xensim.Gnttab.grant_access_deferred gt ~dom:1 ~peer:2 ~writable:true ~fill 6 in
  Alcotest.(check (list int)) "nothing filled at grant time" [] !filled;
  Xensim.Gnttab.copy_to gt ~by:2 r5 ~src:(bs "fr");
  Alcotest.(check (list int)) "first copy fills its own key" [ 5 ] !filled;
  check_string "copy lands in the filled page" "frge05"
    (Bytestruct.to_string (Xensim.Gnttab.map gt ~by:2 r5));
  Xensim.Gnttab.unmap gt ~by:2 r5;
  Alcotest.(check (list int)) "filled once" [ 5 ] !filled;
  Xensim.Gnttab.end_access gt r5;
  Xensim.Gnttab.end_access gt r6;
  Alcotest.(check (list int)) "a revoked untouched grant never fills" [ 5 ] !filled

(* ---- Shared rings ---- *)

let make_ring () =
  let page = Bytestruct.create 4096 in
  let sring = Xensim.Ring.Sring.init page ~slot_bytes:16 in
  let front = Xensim.Ring.Front.init sring in
  let back = Xensim.Ring.Back.init (Xensim.Ring.Sring.attach page ~slot_bytes:16) in
  (front, back)

let test_ring_request_response_cycle () =
  let front, back = make_ring () in
  let slot = Xensim.Ring.Front.next_request front in
  Bytestruct.LE.set_uint32 slot 0 77l;
  check_bool "first push notifies" true (Xensim.Ring.Front.push_requests_and_check_notify front);
  let got = ref [] in
  let n = Xensim.Ring.Back.consume_requests back (fun s ->
      got := Bytestruct.LE.get_uint32_int s 0 :: !got) in
  check_int "one consumed" 1 n;
  Alcotest.(check (list int)) "payload" [ 77 ] !got;
  let rsp = Xensim.Ring.Back.next_response back in
  Bytestruct.LE.set_uint32 rsp 0 78l;
  check_bool "response push notifies" true (Xensim.Ring.Back.push_responses_and_check_notify back);
  let rsps = ref [] in
  ignore (Xensim.Ring.Front.consume_responses front (fun s ->
      rsps := Bytestruct.LE.get_uint32_int s 0 :: !rsps));
  Alcotest.(check (list int)) "response payload" [ 78 ] !rsps

(* A backend may leave consumed requests in their slots and read each one
   when it answers it (netback's RX credit): the slot it exposes is the
   one [next_response] then claims, FIFO, across wraparound. *)
let test_ring_unanswered_requests () =
  let page = Bytestruct.create (Xensim.Ring.Sring.page_bytes ~slot_bytes:16 4) in
  let front = Xensim.Ring.Front.init (Xensim.Ring.Sring.init page ~slot_bytes:16) in
  let back = Xensim.Ring.Back.init (Xensim.Ring.Sring.attach page ~slot_bytes:16) in
  let tag = ref 0 in
  for round = 1 to 3 do
    for _ = 1 to 3 do
      incr tag;
      Bytestruct.LE.set_uint16 (Xensim.Ring.Front.next_request front) 0 !tag
    done;
    ignore (Xensim.Ring.Front.push_requests_and_check_notify front);
    check_int "nothing consumed, nothing unanswered" 0 (Xensim.Ring.Back.unanswered back);
    check_int "three consumed" 3 (Xensim.Ring.Back.consume_requests back ignore);
    for k = 3 downto 1 do
      check_int "unanswered count" k (Xensim.Ring.Back.unanswered back);
      let oldest = Xensim.Ring.Back.oldest_unanswered back in
      check_int
        (Printf.sprintf "round %d: oldest request first" round)
        (!tag - k + 1)
        (Bytestruct.LE.get_uint16 oldest 0);
      let rsp = Xensim.Ring.Back.next_response back in
      Bytestruct.LE.set_uint16 rsp 2 (1000 + k);
      check_int "the response slot is the exposed slot" (1000 + k) (Bytestruct.LE.get_uint16 oldest 2)
    done;
    check_int "all answered" 0 (Xensim.Ring.Back.unanswered back);
    ignore (Xensim.Ring.Back.push_responses_and_check_notify back);
    check_int "three responses" 3 (Xensim.Ring.Front.consume_responses front ignore)
  done;
  match Xensim.Ring.Back.oldest_unanswered back with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "no unanswered request to expose"

let test_ring_capacity_and_full () =
  let front, _back = make_ring () in
  let capacity = Xensim.Ring.Front.free_requests front in
  check_int "capacity is a power of two" 0 (capacity land (capacity - 1));
  for i = 1 to capacity do
    let s = Xensim.Ring.Front.next_request front in
    Bytestruct.LE.set_uint32 s 0 (Int32.of_int i)
  done;
  check_int "full" 0 (Xensim.Ring.Front.free_requests front);
  match Xensim.Ring.Front.next_request front with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "overflow must be refused"

let test_ring_event_suppression () =
  let front, back = make_ring () in
  (* Producer pushes twice without the consumer sleeping: the second push
     must not require a notification. *)
  ignore (Xensim.Ring.Front.next_request front);
  check_bool "first push notifies" true (Xensim.Ring.Front.push_requests_and_check_notify front);
  ignore (Xensim.Ring.Front.next_request front);
  check_bool "second push suppressed" false
    (Xensim.Ring.Front.push_requests_and_check_notify front);
  (* After the consumer drains (rearming req_event), pushes notify again. *)
  ignore (Xensim.Ring.Back.consume_requests back (fun _ -> ()));
  ignore (Xensim.Ring.Front.next_request front);
  check_bool "push after drain notifies" true
    (Xensim.Ring.Front.push_requests_and_check_notify front)

let test_ring_final_check_closes_race () =
  let front, back = make_ring () in
  (* Requests arriving during consume_requests are picked up by the final
     check rather than lost. *)
  ignore (Xensim.Ring.Front.next_request front);
  ignore (Xensim.Ring.Front.push_requests_and_check_notify front);
  let seen = ref 0 in
  let inject = ref true in
  ignore
    (Xensim.Ring.Back.consume_requests back (fun _ ->
         incr seen;
         if !inject then begin
           inject := false;
           ignore (Xensim.Ring.Front.next_request front);
           ignore (Xensim.Ring.Front.push_requests_and_check_notify front)
         end));
  check_int "both requests seen in one call" 2 !seen

let test_ring_wraparound () =
  let front, back = make_ring () in
  let capacity = Xensim.Ring.Front.free_requests front in
  (* Run several times the ring size through it. *)
  for i = 1 to capacity * 3 do
    let s = Xensim.Ring.Front.next_request front in
    Bytestruct.LE.set_uint32 s 0 (Int32.of_int i);
    ignore (Xensim.Ring.Front.push_requests_and_check_notify front);
    let got = ref 0 in
    ignore (Xensim.Ring.Back.consume_requests back (fun s ->
        got := Bytestruct.LE.get_uint32_int s 0));
    check_int "fifo across wrap" i !got;
    let r = Xensim.Ring.Back.next_response back in
    Bytestruct.LE.set_uint32 r 0 (Int32.of_int i);
    ignore (Xensim.Ring.Back.push_responses_and_check_notify back);
    ignore (Xensim.Ring.Front.consume_responses front (fun _ -> ()))
  done

let prop_ring_fifo =
  qtest "ring preserves fifo order" QCheck.(list_of_size (QCheck.Gen.int_range 1 300) (int_bound 1000))
    (fun values ->
      let front, back = make_ring () in
      let out = ref [] in
      let rec feed = function
        | [] -> ()
        | vs ->
          let n = min (Xensim.Ring.Front.free_requests front) (List.length vs) in
          let rec push i = function
            | v :: rest when i < n ->
              let s = Xensim.Ring.Front.next_request front in
              Bytestruct.LE.set_uint32 s 0 (Int32.of_int v);
              push (i + 1) rest
            | rest -> rest
          in
          let rest = push 0 vs in
          ignore (Xensim.Ring.Front.push_requests_and_check_notify front);
          ignore (Xensim.Ring.Back.consume_requests back (fun s ->
              out := Bytestruct.LE.get_uint32_int s 0 :: !out));
          (* drain responses to free slots *)
          let k = n in
          for _ = 1 to k do
            ignore (Xensim.Ring.Back.next_response back)
          done;
          ignore (Xensim.Ring.Back.push_responses_and_check_notify back);
          ignore (Xensim.Ring.Front.consume_responses front (fun _ -> ()));
          feed rest
      in
      feed values;
      List.rev !out = values)

(* ---- vchan ---- *)

let vchan_world () =
  let w = create () in
  let a = Xensim.Hypervisor.create_domain w.hv ~name:"server" ~mem_mib:16 ~platform:Platform.xen_extent () in
  let b = Xensim.Hypervisor.create_domain w.hv ~name:"client" ~mem_mib:16 ~platform:Platform.xen_extent () in
  let s_ep, c_ep = Xensim.Vchan.connect w.hv ~server:a ~client:b () in
  (w, s_ep, c_ep)

let read_all w ep n =
  let buf = Buffer.create n in
  let rec go () =
    if Buffer.length buf >= n then P.return (Buffer.contents buf)
    else
      Xensim.Vchan.read ep ~max:4096 >>= function
      | None -> P.return (Buffer.contents buf)
      | Some chunk ->
        Buffer.add_string buf (Bytestruct.to_string chunk);
        go ()
  in
  run w (go ())

let test_vchan_roundtrip () =
  let w, s_ep, c_ep = vchan_world () in
  P.async (fun () -> Xensim.Vchan.write c_ep (bs "hello vchan"));
  check_string "server receives" "hello vchan" (read_all w s_ep 11);
  P.async (fun () -> Xensim.Vchan.write s_ep (bs "pong"));
  check_string "client receives" "pong" (read_all w c_ep 4)

let test_vchan_large_transfer_wraps () =
  let w, s_ep, c_ep = vchan_world () in
  let data = pattern 40_000 in
  P.async (fun () -> Xensim.Vchan.write c_ep (bs data));
  let received = read_all w s_ep 40_000 in
  check_int "length" 40_000 (String.length received);
  check_bool "contents intact across ring wraps" true (received = data)

let test_vchan_few_hypercalls_when_streaming () =
  (* Paper 3.5.1: continuous flow avoids hypervisor calls via the
     check-before-blocking protocol. *)
  let w, s_ep, c_ep = vchan_world () in
  let stats = w.hv.Xensim.Hypervisor.stats in
  Xensim.Xstats.reset stats;
  let chunks = 64 in
  P.async (fun () ->
      let rec send i =
        if i = 0 then P.return ()
        else Xensim.Vchan.write c_ep (bs (pattern 512)) >>= fun () -> send (i - 1)
      in
      send chunks);
  ignore (read_all w s_ep (chunks * 512));
  check_bool
    (Printf.sprintf "notifications (%d) well below chunk count (%d)"
       stats.Xensim.Xstats.evtchn_notifies chunks)
    true
    (stats.Xensim.Xstats.evtchn_notifies < chunks / 2)

let test_vchan_close_eof () =
  let w, s_ep, c_ep = vchan_world () in
  P.async (fun () -> Xensim.Vchan.write c_ep (bs "bye"));
  ignore (read_all w s_ep 3);
  Xensim.Vchan.close c_ep;
  Engine.Sim.run w.sim;
  check_bool "eof after close" true (run w (Xensim.Vchan.read s_ep ~max:10) = None);
  match run w (Xensim.Vchan.write s_ep (bs "x")) with
  | exception Xensim.Vchan.Closed -> ()
  | _ -> Alcotest.fail "write to closed peer must fail"

(* ---- Toolstack & domains ---- *)

let test_toolstack_sync_serialises () =
  let w = create () in
  let ts = Xensim.Toolstack.create w.hv in
  let profile =
    { Xensim.Toolstack.kind = "test"; image_bytes = 1_000_000; kernel_init_ns = (fun ~mem_mib:_ -> 1_000_000) }
  in
  let boot mode name =
    Xensim.Toolstack.boot ts ~mode ~profile ~name ~mem_mib:128 ~platform:Platform.xen_extent
  in
  (* Two sync boots take about twice one boot; two async boots overlap. *)
  let t0 = Engine.Sim.now w.sim in
  let both = P.both (boot `Sync "a") (boot `Sync "b") in
  ignore (run w both);
  let sync_elapsed = Engine.Sim.now w.sim - t0 in
  let w2 = create () in
  let ts2 = Xensim.Toolstack.create w2.hv in
  let boot2 mode name =
    Xensim.Toolstack.boot ts2 ~mode ~profile ~name ~mem_mib:128 ~platform:Platform.xen_extent
  in
  let t1 = Engine.Sim.now w2.sim in
  ignore (Mthread.Promise.run w2.sim (P.both (boot2 `Async "a") (boot2 `Async "b")));
  let async_elapsed = Engine.Sim.now w2.sim - t1 in
  check_bool "sync slower than async" true (sync_elapsed > async_elapsed + (async_elapsed / 2))

let test_toolstack_build_time_grows_with_memory () =
  let small = Xensim.Toolstack.build_time_ns ~mem_mib:64 ~image_bytes:0 in
  let large = Xensim.Toolstack.build_time_ns ~mem_mib:3072 ~image_bytes:0 in
  check_bool "monotone in memory" true (large > small * 10)

let test_domain_charge_serialises () =
  let w = create () in
  let d = Xensim.Hypervisor.create_domain w.hv ~name:"d" ~mem_mib:16 ~platform:Platform.xen_extent () in
  let t0 = Engine.Sim.now w.sim in
  ignore (run w (P.join [ Xensim.Domain.charge d ~cost:1000; Xensim.Domain.charge d ~cost:1000 ]));
  check_int "single vCPU serialises work" 2000 (Engine.Sim.now w.sim - t0)

(* The packet path charges with [charge_k], applications with [charge]:
   one reservation in two shapes. Interleaved on one vCPU with a plain
   [Sim.at] at the same finish instant, every continuation fires at the
   same virtual time, ties fire in insertion order, the slice's
   vcpu.wait/vcpu.run spans are recorded before the continuation runs,
   and the charge and its continuation sit on the caller's profiler
   frame — with the trace and profiler planes on or off. *)
let test_charge_and_charge_k_interchangeable () =
  List.iter
    (fun (trace, prof) ->
      let w = create () in
      let d =
        Xensim.Hypervisor.create_domain w.hv ~name:"k" ~mem_mib:16 ~platform:Platform.xen_extent ()
      in
      if trace then Trace.enable ();
      if prof then begin
        Trace.Prof.reset ();
        Trace.Prof.enable ()
      end;
      Fun.protect ~finally:Trace.quiesce (fun () ->
          let t0 = Engine.Sim.now w.sim in
          let runs () =
            List.length (List.filter (fun e -> e.Trace.name = "vcpu.run") (Trace.events ()))
          in
          let frame = ref (Trace.Prof.current_node ()) in
          let fired = ref [] in
          let note label () =
            fired :=
              (label, Engine.Sim.now w.sim - t0, runs (), Trace.Prof.current_node () == !frame)
              :: !fired
          in
          Trace.Prof.with_frame "tcp" (fun () ->
              frame := Trace.Prof.current_node ();
              P.async (fun () -> Xensim.Domain.charge d ~cost:1000 >|= note "charge 1000");
              Xensim.Domain.charge_k d ~cost:500 (note "charge_k 500");
              ignore (Engine.Sim.at w.sim ~time:(t0 + 1500) (note "Sim.at"));
              P.async (fun () -> Xensim.Domain.charge d ~cost:0 >|= note "charge 0");
              Xensim.Domain.charge_k d ~cost:0 (note "charge_k 0"));
          Engine.Sim.run ~until:(t0 + 10_000) w.sim;
          let spans n = if trace then n else 0 in
          let expected =
            [
              ("charge 1000", 1000, spans 1, true);
              ("charge_k 500", 1500, spans 2, true);
              ("Sim.at", 1500, spans 2, true);
              ("charge 0", 1500, spans 3, true);
              ("charge_k 0", 1500, spans 4, true);
            ]
          in
          let label = Printf.sprintf "trace=%b prof=%b" trace prof in
          check
            Alcotest.(list (pair string (pair int (pair int bool))))
            (label ^ ": firing order, instant, spans so far, frame")
            (List.map (fun (l, t, n, f) -> (l, (t, (n, f)))) expected)
            (List.rev_map (fun (l, t, n, f) -> (l, (t, (n, f)))) !fired);
          if prof then
            match
              List.find_opt
                (fun (s : Trace.Prof.stat) ->
                  s.p_dom = d.Xensim.Domain.id && s.p_stack = "engine;tcp")
                (Trace.Prof.stats ())
            with
            | Some s ->
              check_int (label ^ ": charges on the caller's frame") 4 s.p_samples;
              check_int (label ^ ": run ns on the caller's frame") 1500 s.p_run_ns;
              check_int (label ^ ": wait ns on the caller's frame") 4000 s.p_wait_ns
            | None -> Alcotest.fail (label ^ ": no engine;tcp row")))
    [ (false, false); (true, false); (false, true); (true, true) ]

(* [book] takes the slice [charge_k] takes, and untraced queues nothing
   for it. Twin worlds get the same charges, some before and some after
   the clock moves, on one vCPU and on three: one through [charge_k]
   with a continuation that does nothing, one through [book]. They must
   agree on [cpu_free_at], [busy_ns] and the vCPU totals, and [book]
   must leave [Sim.pending] as it found it. Traced, [book] keeps its
   event and records the slice's vcpu.wait and vcpu.run spans. *)
let test_book_same_slice () =
  let charged ~vcpus charge =
    let w = create () in
    let d =
      Xensim.Hypervisor.create_domain w.hv ~name:"b" ~mem_mib:16 ~platform:Platform.xen_extent
        ~vcpus ()
    in
    let t0 = Engine.Sim.now w.sim in
    let queued = ref 0 in
    let charge_all costs =
      List.iter
        (fun cost ->
          let before = Engine.Sim.pending w.sim in
          charge d ~cost;
          queued := !queued + Engine.Sim.pending w.sim - before)
        costs
    in
    charge_all [ 1000; 0; 250 ];
    Engine.Sim.run ~until:(t0 + 600) w.sim;
    charge_all [ -5; 700; 300; 40 ];
    Engine.Sim.run ~until:(t0 + 10_000) w.sim;
    ( (Array.to_list d.Xensim.Domain.cpu_free_at, d.Xensim.Domain.busy_ns),
      (Engine.Sim.vcpu_totals w.sim, !queued) )
  in
  let totals =
    Alcotest.testable
      (fun ppf (t : Engine.Sim.vcpu_totals) ->
        Fmt.pf ppf "dom %d run %d wait %d slices %d" t.vt_dom t.vt_run_ns t.vt_wait_ns t.vt_slices)
      ( = )
  in
  List.iter
    (fun vcpus ->
      let label = Printf.sprintf "%d vCPU(s)" vcpus in
      let (k_slices, (k_totals, k_queued)) =
        charged ~vcpus (fun d ~cost -> Xensim.Domain.charge_k d ~cost ignore)
      in
      let (b_slices, (b_totals, b_queued)) = charged ~vcpus Xensim.Domain.book in
      check Alcotest.(pair (list int) int) (label ^ ": cpu_free_at and busy_ns") k_slices b_slices;
      check (Alcotest.list totals) (label ^ ": vcpu_totals") k_totals b_totals;
      check_int (label ^ ": charge_k queues an event per charge") 7 k_queued;
      check_int (label ^ ": book queues none") 0 b_queued)
    [ 1; 3 ];
  let w = create () in
  let d = Xensim.Hypervisor.create_domain w.hv ~name:"t" ~mem_mib:16 ~platform:Platform.xen_extent () in
  Trace.enable ();
  Fun.protect ~finally:Trace.quiesce (fun () ->
      let before = Engine.Sim.pending w.sim in
      Xensim.Domain.book d ~cost:500;
      check_int "traced: book keeps its event" (before + 1) (Engine.Sim.pending w.sim);
      Engine.Sim.run ~until:(Engine.Sim.now w.sim + 10_000) w.sim;
      let named n =
        List.length
          (List.filter
             (fun e -> e.Trace.name = n && e.Trace.dom = d.Xensim.Domain.id)
             (Trace.events ()))
      in
      check_int "traced: vcpu.wait recorded" 1 (named "vcpu.wait");
      check_int "traced: vcpu.run recorded" 1 (named "vcpu.run"))

(* Each vCPU's charge_k continuations wait on its own run queue, with
   only the queue's head in the event heap. Mixed with plain events they
   must still fire in (time, call order), [Sim.pending] must count every
   queued continuation, and a destroyed domain's queues drain. *)
let test_lane_order () =
  let sim = Engine.Sim.create () in
  let hv = Xensim.Hypervisor.create sim in
  let dom vcpus =
    Xensim.Hypervisor.create_domain hv ~name:"lanes" ~mem_mib:16 ~platform:Platform.xen_extent
      ~vcpus ()
  in
  let d1 = dom 1 and d3 = dom 3 in
  let t0 = Engine.Sim.now sim in
  let calls = ref 0 and outstanding = ref 0 and expected = ref [] and fired = ref [] in
  let record label due f =
    let id = !calls in
    incr calls;
    incr outstanding;
    expected := (due, id, label) :: !expected;
    fun () ->
      decr outstanding;
      fired := (Engine.Sim.now sim, id, label) :: !fired;
      f ()
  in
  let nop () = () in
  let at label time f = ignore (Engine.Sim.at sim ~time:(t0 + time) (record label (t0 + time) f)) in
  let schedule label delay f =
    ignore (Engine.Sim.schedule sim ~delay (record label (Engine.Sim.now sim + delay) f))
  in
  (* Where the slice ends: the least-loaded vCPU, SMP tax on more than
     one. *)
  let k label d cost f =
    let free = d.Xensim.Domain.cpu_free_at in
    let n = Array.length free in
    let scaled = int_of_float (float_of_int cost *. (1.0 +. (0.15 *. float_of_int (n - 1)))) in
    let best = ref 0 in
    Array.iteri (fun i v -> if v < free.(!best) then best := i) free;
    let due = max (Engine.Sim.now sim) free.(!best) + scaled in
    Xensim.Domain.charge_k d ~cost (record label due f)
  in
  k "d1 a" d1 1000 nop;
  at "at 1000" 1000 nop;
  k "d1 b" d1 500 (fun () ->
      k "d1 b again" d1 0 nop;
      schedule "sched in b" 0 nop;
      k "d1 b third" d1 100 nop);
  k "d3 a" d3 1000 nop;
  k "d3 b" d3 1000 (fun () -> k "d3 b again" d3 1000 nop);
  schedule "sched 1300" 1300 nop;
  k "d3 c" d3 1000 nop;
  k "d3 d" d3 500 (fun () ->
      k "d3 d again" d3 0 nop;
      at "at 1950" 1950 nop);
  k "d1 c" d1 0 nop;
  at "at 1500" 1500 nop;
  k "d3 e" d3 0 nop;
  at "at 0" 0 nop;
  Xensim.Hypervisor.destroy hv d3;
  check_int "pending before the run" !outstanding (Engine.Sim.pending sim);
  while Engine.Sim.step sim do
    check_int
      (Printf.sprintf "pending after step %d" (List.length !fired))
      !outstanding (Engine.Sim.pending sim)
  done;
  let key (t, id, label) = (label, (t - t0, id)) in
  check
    Alcotest.(list (pair string (pair int int)))
    "fired in (time, call order) at the expected instants"
    (List.map key (List.sort compare !expected))
    (List.rev_map key !fired);
  check_int "every event fired" !calls (List.length !fired);
  let queued d =
    Array.fold_left (fun n l -> n + Engine.Sim.lane_length l) 0 d.Xensim.Domain.lanes
  in
  check_int "1-vCPU domain's run queue empty" 0 (queued d1);
  check_int "destroyed 3-vCPU domain's run queues empty" 0 (queued d3);
  check_int "nothing pending" 0 (Engine.Sim.pending sim)

(* [charge] is [charge_k] plus a wakener, so its slice cannot be given
   back: cancelling the promise before the slice ends leaves the booked
   continuation in place, and when it fires it settles nothing. *)
let test_cancelled_charge_settles_nothing () =
  let w = create () in
  let d = Xensim.Hypervisor.create_domain w.hv ~name:"c" ~mem_mib:16 ~platform:Platform.xen_extent () in
  let t0 = Engine.Sim.now w.sim and start = Engine.Sim.pending w.sim in
  let p = Xensim.Domain.charge d ~cost:1000 in
  let settled = ref 0 and continued = ref false in
  P.on_resolve p (fun _ -> incr settled);
  P.async (fun () -> p >|= fun () -> continued := true);
  P.cancel p;
  check_int "settled once, by the cancel" 1 !settled;
  let after = ref 0 in
  Xensim.Domain.charge_k d ~cost:0 (fun () -> after := Engine.Sim.now w.sim - t0);
  Engine.Sim.run ~until:(t0 + 10_000) w.sim;
  check_int "the slice was not given back" 1000 !after;
  check_bool "still cancelled" true (P.state p = `Failed P.Canceled);
  check_int "nothing settled when the slice fired" 1 !settled;
  check_bool "the caller's continuation never ran" false !continued;
  check_int "the continuation left the queue" start (Engine.Sim.pending w.sim)

let test_charge_and_charge_k_booking_order () =
  let w = create () in
  let d = Xensim.Hypervisor.create_domain w.hv ~name:"o" ~mem_mib:16 ~platform:Platform.xen_extent () in
  let t0 = Engine.Sim.now w.sim in
  let fired = ref [] in
  let note label () = fired := (label, Engine.Sim.now w.sim - t0) :: !fired in
  List.iter
    (fun (label, cost, promise) ->
      if promise then P.async (fun () -> Xensim.Domain.charge d ~cost >|= note label)
      else Xensim.Domain.charge_k d ~cost (note label))
    [
      ("charge 300", 300, true);
      ("charge_k 200", 200, false);
      ("charge_k 0", 0, false);
      ("charge 0", 0, true);
      ("charge 100", 100, true);
      ("charge_k 100", 100, false);
    ];
  Engine.Sim.run ~until:(t0 + 10_000) w.sim;
  check
    Alcotest.(list (pair string int))
    "booking order, each at its slice's end"
    [
      ("charge 300", 300);
      ("charge_k 200", 500);
      ("charge_k 0", 500);
      ("charge 0", 500);
      ("charge 100", 600);
      ("charge_k 100", 700);
    ]
    (List.rev !fired)

let test_domain_multi_vcpu_parallel () =
  let w = create () in
  let d = Xensim.Hypervisor.create_domain w.hv ~name:"smp" ~mem_mib:16 ~platform:Platform.linux_pv ~vcpus:2 () in
  let t0 = Engine.Sim.now w.sim in
  ignore (run w (P.join [ Xensim.Domain.charge d ~cost:1000; Xensim.Domain.charge d ~cost:1000 ]));
  let elapsed = Engine.Sim.now w.sim - t0 in
  (* parallel lanes, but each unit costs 15% more *)
  check_int "parallel with contention tax" 1150 elapsed

let test_domain_utilisation () =
  let w = create () in
  let d = Xensim.Hypervisor.create_domain w.hv ~name:"u" ~mem_mib:16 ~platform:Platform.xen_extent () in
  ignore (run w (Xensim.Domain.charge d ~cost:500));
  ignore (run w (P.sleep w.sim 500));
  check (Alcotest.float 1e-9) "50% busy" 0.5 (Xensim.Domain.utilisation d ~span_ns:1000)

let test_vcpu_accounting () =
  let w = create () in
  let d = Xensim.Hypervisor.create_domain w.hv ~name:"acct" ~mem_mib:16 ~platform:Platform.xen_extent () in
  (* Two back-to-back charges on one vCPU: the second queues behind the
     first, so its wait time equals the first's run time. *)
  let p1 = Xensim.Domain.charge d ~cost:1000 in
  let p2 = Xensim.Domain.charge d ~cost:500 in
  ignore (run w (P.join [ p1; p2 ]));
  match
    List.filter (fun v -> v.Engine.Sim.vt_dom = d.Xensim.Domain.id) (Engine.Sim.vcpu_totals w.sim)
  with
  | [ v ] ->
    check_int "slices" 2 v.Engine.Sim.vt_slices;
    check_int "run total matches busy_ns" d.Xensim.Domain.busy_ns v.Engine.Sim.vt_run_ns;
    check_int "second charge waited behind first" 1000 v.Engine.Sim.vt_wait_ns
  | l -> Alcotest.failf "expected one vcpu total for dom, got %d" (List.length l)

let () =
  Alcotest.run "xensim"
    [
      ( "pagetable+seal",
        [
          Alcotest.test_case "permissions" `Quick test_pt_basic;
          Alcotest.test_case "overlap rejected" `Quick test_pt_overlap_rejected;
          Alcotest.test_case "overlap independent of insertion order" `Quick
            test_pt_overlap_order_independent;
          Alcotest.test_case "seal blocks modification" `Quick test_seal_blocks_modification;
          Alcotest.test_case "code injection blocked" `Quick test_seal_code_injection_scenario;
          Alcotest.test_case "io mappings survive seal" `Quick test_seal_allows_io_mappings;
          Alcotest.test_case "double seal" `Quick test_double_seal;
          Alcotest.test_case "seal needs hypervisor patch" `Quick test_hypervisor_seal_requires_patch;
          Alcotest.test_case "seal hypercall counted" `Quick test_hypervisor_seal_counts;
        ] );
      ( "domain table",
        [
          Alcotest.test_case "lookup after destroy" `Quick test_hypervisor_lookup_after_destroy;
          Alcotest.test_case "deterministic iteration" `Quick
            test_hypervisor_domains_deterministic;
        ] );
      ( "evtchn",
        [
          Alcotest.test_case "notify" `Quick test_evtchn_notify;
          Alcotest.test_case "bidirectional" `Quick test_evtchn_bidirectional;
          Alcotest.test_case "coalescing" `Quick test_evtchn_coalescing;
          Alcotest.test_case "close" `Quick test_evtchn_close;
          Alcotest.test_case "double bind rejected" `Quick test_evtchn_double_bind_rejected;
        ] );
      ( "gnttab",
        [
          Alcotest.test_case "map is zero copy" `Quick test_gnttab_map_is_zero_copy;
          Alcotest.test_case "permissions" `Quick test_gnttab_permissions;
          Alcotest.test_case "busy revocation" `Quick test_gnttab_busy_revocation;
          Alcotest.test_case "copy ops" `Quick test_gnttab_copy_ops;
          Alcotest.test_case "deferred fill" `Quick test_gnttab_deferred_fill;
        ] );
      ( "ring",
        [
          Alcotest.test_case "request/response cycle" `Quick test_ring_request_response_cycle;
          Alcotest.test_case "capacity and overflow" `Quick test_ring_capacity_and_full;
          Alcotest.test_case "event suppression" `Quick test_ring_event_suppression;
          Alcotest.test_case "final check closes race" `Quick test_ring_final_check_closes_race;
          Alcotest.test_case "wraparound" `Quick test_ring_wraparound;
          Alcotest.test_case "unanswered requests" `Quick test_ring_unanswered_requests;
          prop_ring_fifo;
        ] );
      ( "vchan",
        [
          Alcotest.test_case "roundtrip" `Quick test_vchan_roundtrip;
          Alcotest.test_case "large transfer wraps" `Quick test_vchan_large_transfer_wraps;
          Alcotest.test_case "few hypercalls when streaming" `Quick
            test_vchan_few_hypercalls_when_streaming;
          Alcotest.test_case "close gives eof" `Quick test_vchan_close_eof;
        ] );
      ( "toolstack+domain",
        [
          Alcotest.test_case "sync builds serialise" `Quick test_toolstack_sync_serialises;
          Alcotest.test_case "build time grows with memory" `Quick
            test_toolstack_build_time_grows_with_memory;
          Alcotest.test_case "charge serialises on one vcpu" `Quick test_domain_charge_serialises;
          Alcotest.test_case "charge and charge_k are interchangeable" `Quick
            test_charge_and_charge_k_interchangeable;
          Alcotest.test_case "run queues keep (time, call order) and the pending count" `Quick
            test_lane_order;
          Alcotest.test_case "multi-vcpu parallel with tax" `Quick test_domain_multi_vcpu_parallel;
          Alcotest.test_case "utilisation" `Quick test_domain_utilisation;
          Alcotest.test_case "vcpu accounting" `Quick test_vcpu_accounting;
          Alcotest.test_case "a cancelled charge settles nothing" `Quick
            test_cancelled_charge_settles_nothing;
          Alcotest.test_case "charge and charge_k complete in booking order" `Quick
            test_charge_and_charge_k_booking_order;
          Alcotest.test_case "book takes charge_k's slice, queues no event untraced" `Quick
            test_book_same_slice;
        ] );
    ]
