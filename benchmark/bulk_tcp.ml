(* bulk_tcp: ten iperf-style flows from a Linux PV sender to a Mirage
   receiver over a 10 Gb/s, 20 us link (the Figure 8 setup). Chosen
   because the per-segment datapath (netif ring, TCP, pktbuf, netsim)
   does nearly all the work, with some loss recovery and almost no
   connection or application work.

   The sender makes 64 KiB writes of a seeded byte pattern; the receiver
   is the idiomatic recursive [bind read] loop and checks every byte
   against the pattern. An operation is one 64 KiB write, complete when
   its last byte has been received; its latency runs from the write call. *)

module P = Mthread.Promise
module Tcp = Netstack.Tcp

let flows = 10
let chunk = 65536

(* Prime, so successive chunks start at different pattern offsets and a
   misplaced segment cannot line up with the pattern by accident. *)
let period = 65521
let base_port = 5001
let warmup_ns = Engine.Sim.ms 100
let measure_ns = Engine.Sim.ms 500

type flow = {
  phase : int;  (* pattern offset of stream byte 0 *)
  calls : int Queue.t;  (* write-call times of chunks not yet fully received *)
  mutable received : int;
  mutable bad : bool;  (* a mismatch in the chunk being received *)
  mutable done_in_window : int;
}

let setup ~seed ~scale =
  let rng = Engine.Prng.create ~seed () in
  let w = World.create ~seed:(Engine.Prng.int rng 0x3fffffff) () in
  let link = (10_000_000_000, 20_000) in
  let host ~platform ~name ~ip =
    World.host w ~platform ~bandwidth_bps:(fst link) ~latency_ns:(snd link) ~name ~ip ()
  in
  let _, snd_stack = host ~platform:Platform.linux_pv ~name:"sender" ~ip:"10.0.0.1" in
  let rcv_dom, rcv_stack = host ~platform:Platform.xen_extent ~name:"receiver" ~ip:"10.0.0.2" in
  (* pattern.[i] = pattern.[i mod period] for i < period + chunk, so any
     chunk-sized window of the stream is one contiguous view *)
  let pattern = Bytestruct.create (period + chunk) in
  for i = 0 to period - 1 do
    Bytestruct.set_uint8 pattern i (Engine.Prng.int rng 256)
  done;
  for i = period to period + chunk - 1 do
    Bytestruct.set_uint8 pattern i (Bytestruct.get_uint8 pattern (i - period))
  done;
  let expect fl off len = Bytestruct.sub pattern ((fl.phase + off) mod period) len in
  let states =
    Array.init flows (fun _ ->
        {
          phase = Engine.Prng.int rng period;
          calls = Queue.create ();
          received = 0;
          bad = false;
          done_in_window = 0;
        })
  in
  let in_window = ref false in
  let attempted = ref 0 and failed = ref 0 and bytes = ref 0 in
  let lat = Stats.Samples.create () in
  let complete fl =
    let called = Queue.pop fl.calls in
    if !in_window then begin
      incr attempted;
      fl.done_in_window <- fl.done_in_window + 1;
      if fl.bad then incr failed
      else begin
        bytes := !bytes + chunk;
        Stats.Samples.add lat (World.now w - called)
      end
    end;
    fl.bad <- false
  in
  (* Check a received view piece by piece, never across a chunk boundary,
     so a mismatch is charged to the chunk it falls in. *)
  let consume fl c =
    let len = Bytestruct.length c in
    let pos = ref 0 in
    while !pos < len do
      let n = min (len - !pos) (chunk - (fl.received mod chunk)) in
      if not (Bytestruct.equal (Bytestruct.sub c !pos n) (expect fl fl.received n)) then
        fl.bad <- true;
      fl.received <- fl.received + n;
      pos := !pos + n;
      if fl.received mod chunk = 0 then complete fl
    done
  in
  Array.iteri
    (fun i fl ->
      Tcp.listen (Netstack.Stack.tcp rcv_stack) ~port:(base_port + i) (fun conn ->
          let rec drain () =
            P.bind (Tcp.read conn) (function
              | None -> P.return ()
              | Some c ->
                consume fl c;
                drain ())
          in
          drain ()))
    states;
  Array.iteri
    (fun i fl ->
      let sp = Spans.start ~req:i ~now:(World.now w) "connect" in
      P.async (fun () ->
          P.bind
            (Tcp.connect (Netstack.Stack.tcp snd_stack) ~dst:(Netstack.Stack.address rcv_stack)
               ~dst_port:(base_port + i))
            (fun conn ->
              Spans.finish sp ~now:(World.now w);
              let rec pump k =
                Queue.push (World.now w) fl.calls;
                P.bind (Tcp.write conn (expect fl (k * chunk) chunk)) (fun () -> pump (k + 1))
              in
              pump 0)))
    states;
  let d = World.new_drive () in
  World.run_until w d (World.now w + Workload.scaled scale warmup_ns);
  let measure d =
    let t0 = World.now w in
    in_window := true;
    World.run_until w d (t0 + Workload.scaled scale measure_ns);
    in_window := false;
    (* a flow that completed nothing in the window has stalled *)
    Array.iter
      (fun fl ->
        if fl.done_in_window = 0 then begin
          incr attempted;
          incr failed
        end)
      states;
    {
      Workload.attempted = !attempted;
      failed = !failed;
      bytes = !bytes;
      window_ns = World.now w - t0;
      latencies = lat;
      layer = [];
    }
  in
  { Workload.world = w; server = rcv_dom; measure }

let workload =
  {
    Workload.name = "bulk_tcp";
    setup;
  }
