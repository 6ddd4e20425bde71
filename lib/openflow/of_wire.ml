let version = 0x01

type match_ = {
  wildcard_in_port : bool;
  in_port : int;
  wildcard_dl_src : bool;
  dl_src : string;
  wildcard_dl_dst : bool;
  dl_dst : string;
}

let match_l2 ~in_port ~dl_src ~dl_dst =
  {
    wildcard_in_port = false;
    in_port;
    wildcard_dl_src = false;
    dl_src;
    wildcard_dl_dst = false;
    dl_dst;
  }

type action = Output of int

let output_flood = 0xfffb
let output_controller = 0xfffd

type flow_mod = {
  fm_match : match_;
  cookie : int64;
  command : [ `Add | `Delete ];
  idle_timeout : int;
  hard_timeout : int;
  priority : int;
  buffer_id : int32;
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

type features_reply = { datapath_id : int64; n_buffers : int; n_tables : int }

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

exception Decode_error of string

let type_of_msg = function
  | Hello -> 0
  | Error_msg _ -> 1
  | Echo_request _ -> 2
  | Echo_reply _ -> 3
  | Features_request -> 5
  | Features_reply _ -> 6
  | Packet_in _ -> 10
  | Packet_out _ -> 13
  | Flow_mod _ -> 14

(* ofp_match is 40 bytes in OF 1.0. *)
let match_bytes = 40

(* wildcard bit positions, OFPFW_xxx *)
let wc_in_port = 1
let wc_dl_src = 1 lsl 2
let wc_dl_dst = 1 lsl 3
let wc_all = 0x3FFFFF

let put_u16 b off v = Bytes.set_uint16_be b off (v land 0xffff)
let put_u32 b off v = Bytes.set_int32_be b off v
let put_u64 b off v = Bytes.set_int64_be b off v

let write_match b off m =
  let wc =
    wc_all
    land lnot (if m.wildcard_in_port then 0 else wc_in_port)
    land lnot (if m.wildcard_dl_src then 0 else wc_dl_src)
    land lnot (if m.wildcard_dl_dst then 0 else wc_dl_dst)
  in
  put_u32 b off (Int32.of_int wc);
  put_u16 b (off + 4) m.in_port;
  Bytes.blit_string m.dl_src 0 b (off + 6) 6;
  Bytes.blit_string m.dl_dst 0 b (off + 12) 6

let read_match s off =
  let g16 o = Char.code s.[off + o] lsl 8 lor Char.code s.[off + o + 1] in
  let wc =
    (Char.code s.[off] lsl 24)
    lor (Char.code s.[off + 1] lsl 16)
    lor (Char.code s.[off + 2] lsl 8)
    lor Char.code s.[off + 3]
  in
  {
    wildcard_in_port = wc land wc_in_port <> 0;
    in_port = g16 4;
    wildcard_dl_src = wc land wc_dl_src <> 0;
    dl_src = String.sub s (off + 6) 6;
    wildcard_dl_dst = wc land wc_dl_dst <> 0;
    dl_dst = String.sub s (off + 12) 6;
  }

let actions_bytes actions = 8 * List.length actions

let write_actions b off actions =
  List.fold_left
    (fun off (Output port) ->
      put_u16 b off 0 (* OFPAT_OUTPUT *);
      put_u16 b (off + 2) 8;
      put_u16 b (off + 4) port;
      put_u16 b (off + 6) 0xffff (* max_len *);
      off + 8)
    off actions

let read_actions s off len =
  let rec go off remaining acc =
    if remaining <= 0 then List.rev acc
    else begin
      if remaining < 8 then raise (Decode_error "short action");
      let typ = (Char.code s.[off] lsl 8) lor Char.code s.[off + 1] in
      let alen = (Char.code s.[off + 2] lsl 8) lor Char.code s.[off + 3] in
      if alen < 8 || alen > remaining then raise (Decode_error "bad action length");
      let acc =
        if typ = 0 then Output ((Char.code s.[off + 4] lsl 8) lor Char.code s.[off + 5]) :: acc
        else acc (* ignore non-output actions *)
      in
      go (off + alen) (remaining - alen) acc
    end
  in
  go off len []

let body_bytes = function
  | Hello | Features_request -> 0
  | Echo_request s | Echo_reply s -> String.length s
  | Error_msg _ -> 4
  | Features_reply _ -> 24
  | Packet_in p -> 10 + String.length p.data
  | Packet_out p -> 8 + actions_bytes p.po_actions + String.length p.po_data
  | Flow_mod f -> match_bytes + 24 + actions_bytes f.fm_actions

let encode ~xid msg =
  let len = 8 + body_bytes msg in
  let b = Bytes.make len '\000' in
  Bytes.set b 0 (Char.chr version);
  Bytes.set b 1 (Char.chr (type_of_msg msg));
  put_u16 b 2 len;
  put_u32 b 4 (Int32.of_int xid);
  (match msg with
  | Hello | Features_request -> ()
  | Echo_request s | Echo_reply s -> Bytes.blit_string s 0 b 8 (String.length s)
  | Error_msg (t, c) ->
    put_u16 b 8 t;
    put_u16 b 10 c
  | Features_reply f ->
    put_u64 b 8 f.datapath_id;
    put_u32 b 16 (Int32.of_int f.n_buffers);
    Bytes.set b 20 (Char.chr f.n_tables)
  | Packet_in p ->
    put_u32 b 8 p.pi_buffer_id;
    put_u16 b 12 p.total_len;
    put_u16 b 14 p.pi_in_port;
    Bytes.set b 16 (Char.chr (match p.reason with `No_match -> 0 | `Action -> 1));
    Bytes.blit_string p.data 0 b 18 (String.length p.data)
  | Packet_out p ->
    put_u32 b 8 p.po_buffer_id;
    put_u16 b 12 p.po_in_port;
    put_u16 b 14 (actions_bytes p.po_actions);
    let off = write_actions b 16 p.po_actions in
    Bytes.blit_string p.po_data 0 b off (String.length p.po_data)
  | Flow_mod f ->
    write_match b 8 f.fm_match;
    put_u64 b 48 f.cookie;
    put_u16 b 56 (match f.command with `Add -> 0 | `Delete -> 3);
    put_u16 b 58 f.idle_timeout;
    put_u16 b 60 f.hard_timeout;
    put_u16 b 62 f.priority;
    put_u32 b 64 f.buffer_id;
    put_u16 b 68 0xffff (* out_port: none *);
    put_u16 b 70 0;
    ignore (write_actions b 72 f.fm_actions));
  Bytes.to_string b

let decode_header s off =
  if String.length s - off < 8 then None
  else begin
    let v = Char.code s.[off] in
    let t = Char.code s.[off + 1] in
    let len = (Char.code s.[off + 2] lsl 8) lor Char.code s.[off + 3] in
    let xid =
      (Char.code s.[off + 4] lsl 24)
      lor (Char.code s.[off + 5] lsl 16)
      lor (Char.code s.[off + 6] lsl 8)
      lor Char.code s.[off + 7]
    in
    Some (v, t, len, xid)
  end

let g16 s off = (Char.code s.[off] lsl 8) lor Char.code s.[off + 1]

let g32 s off =
  Int32.logor
    (Int32.shift_left (Int32.of_int (g16 s off)) 16)
    (Int32.of_int (g16 s (off + 2)))

let decode s off len =
  match decode_header s off with
  | None -> raise (Decode_error "short header")
  | Some (v, t, hlen, xid) ->
    if v <> version then raise (Decode_error "bad version");
    if hlen <> len || off + len > String.length s then raise (Decode_error "bad length");
    let body_off = off + 8 in
    let body_len = len - 8 in
    let msg =
      match t with
      | 0 -> Hello
      | 1 ->
        if body_len < 4 then raise (Decode_error "short error");
        Error_msg (g16 s body_off, g16 s (body_off + 2))
      | 2 -> Echo_request (String.sub s body_off body_len)
      | 3 -> Echo_reply (String.sub s body_off body_len)
      | 5 -> Features_request
      | 6 ->
        if body_len < 24 then raise (Decode_error "short features_reply");
        Features_reply
          {
            datapath_id =
              Int64.logor
                (Int64.shift_left (Int64.of_int32 (g32 s body_off)) 32)
                (Int64.logand (Int64.of_int32 (g32 s (body_off + 4))) 0xFFFFFFFFL);
            n_buffers = Int32.to_int (g32 s (body_off + 8));
            n_tables = Char.code s.[body_off + 12];
          }
      | 10 ->
        if body_len < 10 then raise (Decode_error "short packet_in");
        Packet_in
          {
            pi_buffer_id = g32 s body_off;
            total_len = g16 s (body_off + 4);
            pi_in_port = g16 s (body_off + 6);
            reason = (if Char.code s.[body_off + 8] = 0 then `No_match else `Action);
            data = String.sub s (body_off + 10) (body_len - 10);
          }
      | 13 ->
        if body_len < 8 then raise (Decode_error "short packet_out");
        let alen = g16 s (body_off + 6) in
        if 8 + alen > body_len then raise (Decode_error "packet_out actions overrun");
        Packet_out
          {
            po_buffer_id = g32 s body_off;
            po_in_port = g16 s (body_off + 4);
            po_actions = read_actions s (body_off + 8) alen;
            po_data = String.sub s (body_off + 8 + alen) (body_len - 8 - alen);
          }
      | 14 ->
        if body_len < match_bytes + 24 then raise (Decode_error "short flow_mod");
        let m = read_match s body_off in
        let base = body_off + match_bytes in
        Flow_mod
          {
            fm_match = m;
            cookie =
              Int64.logor
                (Int64.shift_left (Int64.of_int32 (g32 s base)) 32)
                (Int64.logand (Int64.of_int32 (g32 s (base + 4))) 0xFFFFFFFFL);
            command = (if g16 s (base + 8) = 3 then `Delete else `Add);
            idle_timeout = g16 s (base + 10);
            hard_timeout = g16 s (base + 12);
            priority = g16 s (base + 14);
            buffer_id = g32 s (base + 16);
            fm_actions = read_actions s (base + 24) (body_len - match_bytes - 24);
          }
      | t -> raise (Decode_error (Printf.sprintf "unsupported message type %d" t))
    in
    (xid, msg)
