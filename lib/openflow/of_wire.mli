(** OpenFlow 1.0 wire protocol (paper §4.3): the subset a controller and
    learning switch need — HELLO / ECHO / FEATURES / PACKET_IN /
    PACKET_OUT / FLOW_MOD / ERROR. *)

val version : int  (** 0x01 *)

(** ofp_match with the wildcard bits this subset honours. *)
type match_ = {
  wildcard_in_port : bool;
  in_port : int;
  wildcard_dl_src : bool;
  dl_src : string;  (** 6 bytes *)
  wildcard_dl_dst : bool;
  dl_dst : string;
}

(** Exact L2 match on (in_port, src, dst). *)
val match_l2 : in_port:int -> dl_src:string -> dl_dst:string -> match_

type action = Output of int  (** port; [output_flood]/[output_controller] special *)

val output_flood : int
val output_controller : int

type flow_mod = {
  fm_match : match_;
  cookie : int64;
  command : [ `Add | `Delete ];
  idle_timeout : int;
  hard_timeout : int;
  priority : int;
  buffer_id : int32;  (** -1l = none *)
  fm_actions : action list;
}

type packet_in = {
  pi_buffer_id : int32;
  total_len : int;
  pi_in_port : int;
  reason : [ `No_match | `Action ];
  data : string;
}

type packet_out = {
  po_buffer_id : int32;
  po_in_port : int;
  po_actions : action list;
  po_data : string;
}

type features_reply = {
  datapath_id : int64;
  n_buffers : int;
  n_tables : int;
}

type msg =
  | Hello
  | Echo_request of string
  | Echo_reply of string
  | Features_request
  | Features_reply of features_reply
  | Packet_in of packet_in
  | Packet_out of packet_out
  | Flow_mod of flow_mod
  | Error_msg of int * int

(** [encode ~xid msg] produces the framed message. *)
val encode : xid:int -> msg -> string

exception Decode_error of string

(** [decode_header s off] returns [(version, type, length, xid)] if a full
    header is present at [off]. *)
val decode_header : string -> int -> (int * int * int * int) option

(** [decode s off len] parses the message whose frame spans
    [off, off+len). @raise Decode_error on malformed frames. *)
val decode : string -> int -> int -> int * msg  (** xid, message *)
