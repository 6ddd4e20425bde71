type t = {
  sim : Engine.Sim.t;
  flow : Netstack.Tcp.flow;
  dpid : int64;
  n_ports : int;
  send_frame : port:int -> string -> unit;
  table : Flow_table.t;
  buffers : (int32, string * int) Hashtbl.t;  (* buffer_id -> frame, in_port *)
  mutable next_buffer : int32;
  mutable next_xid : int;
}

let ( >>= ) = Mthread.Promise.bind
let return = Mthread.Promise.return

let send t msg =
  t.next_xid <- t.next_xid + 1;
  Mthread.Promise.async (fun () ->
      Netstack.Tcp.write t.flow (Bytestruct.of_string (Of_wire.encode ~xid:t.next_xid msg)))

let flood t ~in_port frame =
  for p = 1 to t.n_ports do
    if p <> in_port then t.send_frame ~port:p frame
  done

let execute_actions t ~in_port frame actions =
  List.iter
    (fun (Of_wire.Output port) ->
      if port = Of_wire.output_flood then flood t ~in_port frame
      else if port = Of_wire.output_controller then ()
      else t.send_frame ~port frame)
    actions

let handle_msg t msg =
  match msg with
  | Of_wire.Hello -> ()
  | Of_wire.Features_request ->
    send t
      (Of_wire.Features_reply
         { Of_wire.datapath_id = t.dpid; n_buffers = 256; n_tables = 1 })
  | Of_wire.Echo_request s -> send t (Of_wire.Echo_reply s)
  | Of_wire.Flow_mod fm -> (
    (match fm.Of_wire.command with
    | `Add ->
      Flow_table.add t.table
        {
          Flow_table.priority = fm.Of_wire.priority;
          match_ = fm.Of_wire.fm_match;
          actions = fm.Of_wire.fm_actions;
          cookie = fm.Of_wire.cookie;
        }
    | `Delete -> Flow_table.delete t.table fm.Of_wire.fm_match);
    (* Apply to the buffered packet, if any. *)
    match Hashtbl.find_opt t.buffers fm.Of_wire.buffer_id with
    | Some (frame, in_port) ->
      Hashtbl.remove t.buffers fm.Of_wire.buffer_id;
      execute_actions t ~in_port frame fm.Of_wire.fm_actions
    | None -> ())
  | Of_wire.Packet_out po -> (
    match Hashtbl.find_opt t.buffers po.Of_wire.po_buffer_id with
    | Some (frame, in_port) ->
      Hashtbl.remove t.buffers po.Of_wire.po_buffer_id;
      execute_actions t ~in_port frame po.Of_wire.po_actions
    | None ->
      if po.Of_wire.po_data <> "" then
        execute_actions t ~in_port:po.Of_wire.po_in_port po.Of_wire.po_data
          po.Of_wire.po_actions)
  | Of_wire.Echo_reply _ | Of_wire.Error_msg _ | Of_wire.Features_reply _
  | Of_wire.Packet_in _ ->
    ()

let reader_loop t =
  let buf = ref "" in
  let rec drain () =
    match Of_wire.decode_header !buf 0 with
    | Some (_, _, len, _) when String.length !buf >= len ->
      let _, msg = Of_wire.decode !buf 0 len in
      buf := String.sub !buf len (String.length !buf - len);
      handle_msg t msg;
      drain ()
    | _ -> return ()
  in
  let rec loop () =
    Netstack.Tcp.read t.flow >>= function
    | None -> return ()
    | Some chunk ->
      buf := !buf ^ Bytestruct.to_string chunk;
      drain () >>= loop
  in
  loop ()

let connect sim tcp ~controller ?(port = 6633) ~dpid ~n_ports ~send_frame () =
  Netstack.Tcp.connect tcp ~dst:controller ~dst_port:port >>= fun flow ->
  let t =
    {
      sim;
      flow;
      dpid;
      n_ports;
      send_frame;
      table = Flow_table.create ();
      buffers = Hashtbl.create 64;
      next_buffer = 1l;
      next_xid = 0;
    }
  in
  send t Of_wire.Hello;
  Mthread.Promise.async (fun () -> reader_loop t);
  return t

let receive_frame t ~in_port frame =
  if String.length frame < 14 then invalid_arg "Switch.receive_frame: short frame";
  let dl_dst = String.sub frame 0 6 and dl_src = String.sub frame 6 6 in
  match Flow_table.lookup t.table ~in_port ~dl_src ~dl_dst with
  | Some entry -> execute_actions t ~in_port frame entry.Flow_table.actions
  | None ->
    let buffer_id = t.next_buffer in
    t.next_buffer <- Int32.add t.next_buffer 1l;
    Hashtbl.replace t.buffers buffer_id (frame, in_port);
    send t
      (Of_wire.Packet_in
         {
           Of_wire.pi_buffer_id = buffer_id;
           total_len = String.length frame;
           pi_in_port = in_port;
           reason = `No_match;
           data = String.sub frame 0 (min 128 (String.length frame));
         })

let flow_table t = t.table
let table_hits t = Flow_table.hits t.table
let buffered_packets t = Hashtbl.length t.buffers
