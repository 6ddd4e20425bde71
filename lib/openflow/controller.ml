type profile = { prof_name : string; per_read_fixed_ns : int; per_msg_ns : int }

(* Calibration against Figure 11 (16 switches, learning-switch service):
   throughput ~ 1 / (per_msg + per_read_fixed / batch_size). cbench batch
   mode delivers reads of many messages, single mode exactly one:
   - NOX:     5.3 us/msg, 2 us/read  -> ~180 k/s batch, ~137 k/s single
   - Mirage:  7.0 us/msg, 3 us/read  -> ~135 k/s batch, ~100 k/s single
   - Maestro: 9.0 us/msg, 35 us/read -> ~75 k/s batch,  ~23 k/s single
   matching the paper's ordering (NOX > Mirage > Maestro) and Maestro's
   collapse on the "single" test. *)
let mirage_profile = { prof_name = "Mirage"; per_read_fixed_ns = 3_000; per_msg_ns = 7_000 }
let nox_profile = { prof_name = "NOX destiny-fast"; per_read_fixed_ns = 2_000; per_msg_ns = 5_300 }
let maestro_profile = { prof_name = "Maestro"; per_read_fixed_ns = 35_000; per_msg_ns = 9_000 }

(* The OpenFlow 1.0 well-known controller port. *)
let port = 6633

let parse_l2 data =
  if String.length data >= 12 then Some (String.sub data 0 6, String.sub data 6 6) else None

(* The learning switch (the service Figure 11 measures): learn the
   source MAC's port, then install a flow towards a known destination or
   flood the packet. [table] maps (datapath, MAC) to a port. *)
let learn table ~dpid (pi : Of_wire.packet_in) =
  match parse_l2 pi.Of_wire.data with
  | None -> []
  | Some (dl_dst, dl_src) ->
    Hashtbl.replace table (dpid, dl_src) pi.Of_wire.pi_in_port;
    (match Hashtbl.find_opt table (dpid, dl_dst) with
    | Some out_port ->
      [
        Of_wire.Flow_mod
          {
            Of_wire.fm_match =
              Of_wire.match_l2 ~in_port:pi.Of_wire.pi_in_port ~dl_src ~dl_dst;
            cookie = 0L;
            command = `Add;
            idle_timeout = 60;
            hard_timeout = 0;
            priority = 100;
            buffer_id = pi.Of_wire.pi_buffer_id;
            fm_actions = [ Of_wire.Output out_port ];
          };
      ]
    | None ->
      [
        Of_wire.Packet_out
          {
            Of_wire.po_buffer_id = pi.Of_wire.pi_buffer_id;
            po_in_port = pi.Of_wire.pi_in_port;
            po_actions = [ Of_wire.Output Of_wire.output_flood ];
            po_data = (if pi.Of_wire.pi_buffer_id = -1l then pi.Of_wire.data else "");
          };
      ])

type t = {
  sim : Engine.Sim.t;
  dom : Xensim.Domain.t option;
  profile : profile;
  table : (int64 * string, int) Hashtbl.t;  (* [learn]'s (datapath, MAC) -> port *)
  mutable packet_ins : int;
  mutable switches : int;
  mutable next_xid : int;
}

let ( >>= ) = Mthread.Promise.bind
let return = Mthread.Promise.return

let charge t cost =
  match t.dom with
  | None -> return ()
  | Some d -> Xensim.Domain.charge d ~cost

let send t flow msg =
  t.next_xid <- t.next_xid + 1;
  Netstack.Tcp.write flow (Bytestruct.of_string (Of_wire.encode ~xid:t.next_xid msg))

let serve t flow =
  let dpid = ref 0L in
  let buf = ref "" in
  (* Replies accumulate into one write per read batch — real controllers
     coalesce their socket writes, and the batched path is what lets the
     per-message cost dominate under cbench's batch mode. *)
  let out = Buffer.create 512 in
  let queue_reply msg =
    t.next_xid <- t.next_xid + 1;
    Buffer.add_string out (Of_wire.encode ~xid:t.next_xid msg)
  in
  let rec handle_buffered () =
    match Of_wire.decode_header !buf 0 with
    | Some (_, _, len, _) when String.length !buf >= len ->
      let _xid, msg = Of_wire.decode !buf 0 len in
      buf := String.sub !buf len (String.length !buf - len);
      charge t t.profile.per_msg_ns >>= fun () ->
      (match msg with
      | Of_wire.Hello -> send t flow Of_wire.Features_request
      | Of_wire.Echo_request s -> send t flow (Of_wire.Echo_reply s)
      | Of_wire.Features_reply f ->
        dpid := f.Of_wire.datapath_id;
        t.switches <- t.switches + 1;
        return ()
      | Of_wire.Packet_in pi ->
        t.packet_ins <- t.packet_ins + 1;
        List.iter queue_reply (learn t.table ~dpid:!dpid pi);
        return ()
      | Of_wire.Echo_reply _ | Of_wire.Error_msg _ | Of_wire.Features_request
      | Of_wire.Packet_out _ | Of_wire.Flow_mod _ ->
        return ())
      >>= fun () -> handle_buffered ()
    | _ -> return ()
  in
  let flush () =
    if Buffer.length out = 0 then return ()
    else begin
      let data = Buffer.contents out in
      Buffer.clear out;
      Netstack.Tcp.write flow (Bytestruct.of_string data)
    end
  in
  let rec read_loop () =
    Netstack.Tcp.read flow >>= function
    | None -> return ()
    | Some chunk ->
      buf := !buf ^ Bytestruct.to_string chunk;
      charge t t.profile.per_read_fixed_ns >>= fun () ->
      handle_buffered () >>= fun () ->
      flush () >>= fun () -> read_loop ()
  in
  send t flow Of_wire.Hello >>= fun () -> read_loop ()

let create sim ?dom ~tcp ~profile () =
  let t =
    {
      sim;
      dom;
      profile;
      table = Hashtbl.create 256;
      packet_ins = 0;
      switches = 0;
      next_xid = 0;
    }
  in
  Netstack.Tcp.listen tcp ~port (fun flow ->
      Mthread.Promise.catch
        (fun () -> serve t flow)
        (function
          | Netstack.Tcp.Connection_reset -> return ()
          | e -> Mthread.Promise.fail e));
  t

let packet_ins t = t.packet_ins
let switches_connected t = t.switches
