(** An OpenFlow 1.0 datapath (switch) as a library: a flow table plus a
    controller channel. Linking this lets an appliance be controlled as if
    it were a switch — the middlebox scenario of paper §4.3.

    Frames enter via {!receive_frame}; table hits execute actions through
    the [send_frame] callback, misses are buffered and sent to the
    controller as PACKET_INs. *)

type t

(** [connect sim tcp ~controller ~dpid ~n_ports ~send_frame ()] dials the
    controller and completes the HELLO/FEATURES handshake. *)
val connect :
  Engine.Sim.t ->
  Netstack.Tcp.t ->
  controller:Netstack.Ipaddr.t ->
  ?port:int ->
  dpid:int64 ->
  n_ports:int ->
  send_frame:(port:int -> string -> unit) ->
  unit ->
  t Mthread.Promise.t

(** Process an incoming frame (≥ 14 bytes of Ethernet). *)
val receive_frame : t -> in_port:int -> string -> unit

val flow_table : t -> Flow_table.t
val table_hits : t -> int
val buffered_packets : t -> int
