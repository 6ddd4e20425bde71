(* The fifth observability plane: wire-level capture. A [Capture.t] is a
   bounded ring of recent frames matching a small pcap-style filter, fed
   from taps: a bridge's (every frame crossing the switch, both
   directions) or a vif's (the frames one guest's device sends and
   delivers). Both taps have one shape, so the wire and the device layer
   name no capture module and a program that never captures links none of
   this. Frames are held by reference per the pktbuf discipline — [record]
   retains the ambient backing pool buffer and the ring's eviction
   releases it; only frames with no pool backing (raw test senders, the
   fault layer's corrupted copies) are copied, and then only up to the
   snaplen. Dumps are real libpcap files (readable by tcpdump/Wireshark)
   plus a JSONL sidecar carrying what classic pcap cannot: direction,
   link id and the [Trace.Flow] id ambient when the frame was recorded,
   which is the same id `mirage_sim trace waterfall` prints. *)

open Netsim

(* --- frame decoding: ethernet / IPv4 / TCP / UDP, offsets per RFC --- *)

let ethertype fr = if Bytestruct.length fr >= 14 then Bytestruct.BE.get_uint16 fr 12 else -1
let is_ipv4 fr = ethertype fr = 0x0800 && Bytestruct.length fr >= 34
let ip_proto fr = Bytestruct.get_uint8 fr 23
let l4_off fr = 14 + ((Bytestruct.get_uint8 fr 14 land 0xf) * 4)

let has_ports fr =
  is_ipv4 fr
  && (let p = ip_proto fr in p = 6 || p = 17)
  && Bytestruct.length fr >= l4_off fr + 4

let src_port fr = Bytestruct.BE.get_uint16 fr (l4_off fr)
let dst_port fr = Bytestruct.BE.get_uint16 fr (l4_off fr + 2)

let tcp_flags fr =
  if is_ipv4 fr && ip_proto fr = 6 && Bytestruct.length fr >= l4_off fr + 14 then
    Bytestruct.get_uint8 fr (l4_off fr + 13)
  else 0

let ip_str fr off =
  Printf.sprintf "%d.%d.%d.%d" (Bytestruct.get_uint8 fr off)
    (Bytestruct.get_uint8 fr (off + 1))
    (Bytestruct.get_uint8 fr (off + 2))
    (Bytestruct.get_uint8 fr (off + 3))

let flags_str f =
  let b = Buffer.create 4 in
  if f land 0x02 <> 0 then Buffer.add_char b 'S';
  if f land 0x10 <> 0 then Buffer.add_char b 'A';
  if f land 0x01 <> 0 then Buffer.add_char b 'F';
  if f land 0x04 <> 0 then Buffer.add_char b 'R';
  if f land 0x08 <> 0 then Buffer.add_char b 'P';
  if f land 0x20 <> 0 then Buffer.add_char b 'U';
  if Buffer.length b = 0 then "." else Buffer.contents b

(* tcpdump-style one-liner for sidecars, the CLI and flight bundles. *)
let summarize fr =
  let ty = ethertype fr in
  if ty = 0x0806 then "arp"
  else if not (is_ipv4 fr) then Printf.sprintf "eth type 0x%04x" (ty land 0xffff)
  else
    let s = ip_str fr 26 and d = ip_str fr 30 in
    match ip_proto fr with
    | 6 when has_ports fr ->
      Printf.sprintf "tcp %s:%d > %s:%d flags=%s" s (src_port fr) d (dst_port fr)
        (flags_str (tcp_flags fr))
    | 17 when has_ports fr -> Printf.sprintf "udp %s:%d > %s:%d" s (src_port fr) d (dst_port fr)
    | 1 -> Printf.sprintf "icmp %s > %s" s d
    | p -> Printf.sprintf "ip proto %d %s > %s" p s d

(* --- capture filters: `tcp and port 80 and flag syn` --- *)

type side = Either | Src | Dst

type filter =
  | All
  | Not of filter
  | And of filter * filter
  | Or of filter * filter
  | Proto of int  (* IP protocol number: 6 tcp, 17 udp, 1 icmp *)
  | Ether_ip
  | Ether_arp
  | Host of side * string  (* 4-byte IPv4 address *)
  | Port of side * int
  | Flag of int  (* TCP flag mask *)

let filter_all = All

let rec filter_matches f fr =
  match f with
  | All -> true
  | Not g -> not (filter_matches g fr)
  | And (a, b) -> filter_matches a fr && filter_matches b fr
  | Or (a, b) -> filter_matches a fr || filter_matches b fr
  | Ether_ip -> ethertype fr = 0x0800
  | Ether_arp -> ethertype fr = 0x0806
  | Proto p -> is_ipv4 fr && ip_proto fr = p
  | Host (side, a) ->
    is_ipv4 fr
    &&
    let src = Bytestruct.get_string fr 26 4 and dst = Bytestruct.get_string fr 30 4 in
    (match side with Either -> src = a || dst = a | Src -> src = a | Dst -> dst = a)
  | Port (side, p) ->
    has_ports fr
    && (match side with
       | Either -> src_port fr = p || dst_port fr = p
       | Src -> src_port fr = p
       | Dst -> dst_port fr = p)
  | Flag m -> tcp_flags fr land m <> 0

exception Bad_filter of string

let parse_ipv4 s =
  match String.split_on_char '.' s with
  | [ a; b; c; d ] -> (
    try
      let oct x =
        match int_of_string_opt x with
        | Some v when v >= 0 && v <= 255 -> Char.chr v
        | _ -> raise Exit
      in
      let by = Bytes.create 4 in
      Bytes.set by 0 (oct a);
      Bytes.set by 1 (oct b);
      Bytes.set by 2 (oct c);
      Bytes.set by 3 (oct d);
      Some (Bytes.to_string by)
    with Exit -> None)
  | _ -> None

let tokenize s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (function
      | ('(' | ')') as c ->
        Buffer.add_char b ' ';
        Buffer.add_char b c;
        Buffer.add_char b ' '
      | c -> Buffer.add_char b (Char.lowercase_ascii c))
    s;
  String.split_on_char ' ' (Buffer.contents b) |> List.filter (fun t -> t <> "")

(* Recursive descent over  expr := term (or term)* ;
   term := fact (and fact)* ;  fact := not fact | ( expr ) | prim. *)
let parse_filter s =
  match tokenize s with
  | [] -> Ok All
  | toks ->
    let rest = ref toks in
    let peek () = match !rest with [] -> None | t :: _ -> Some t in
    let next () =
      match !rest with
      | [] -> raise (Bad_filter "unexpected end of filter")
      | t :: tl ->
        rest := tl;
        t
    in
    let flag_mask = function
      | "fin" -> 0x01
      | "syn" -> 0x02
      | "rst" -> 0x04
      | "psh" -> 0x08
      | "ack" -> 0x10
      | "urg" -> 0x20
      | t -> raise (Bad_filter (Printf.sprintf "unknown tcp flag %S" t))
    in
    let prim ~side =
      match next () with
      | "host" -> (
        let a = next () in
        match parse_ipv4 a with
        | Some ip -> Host (side, ip)
        | None -> raise (Bad_filter (Printf.sprintf "bad IPv4 address %S" a)))
      | "port" -> (
        let p = next () in
        match int_of_string_opt p with
        | Some v when v >= 0 && v <= 65535 -> Port (side, v)
        | _ -> raise (Bad_filter (Printf.sprintf "bad port %S" p)))
      | t -> raise (Bad_filter (Printf.sprintf "expected host or port, got %S" t))
    in
    let rec expr () =
      let l = term () in
      match peek () with
      | Some "or" ->
        ignore (next ());
        Or (l, expr ())
      | _ -> l
    and term () =
      let l = fact () in
      match peek () with
      | Some "and" ->
        ignore (next ());
        And (l, term ())
      | _ -> l
    and fact () =
      match next () with
      | "not" -> Not (fact ())
      | "(" -> (
        let e = expr () in
        match !rest with
        | ")" :: tl ->
          rest := tl;
          e
        | _ -> raise (Bad_filter "missing closing parenthesis"))
      | "tcp" -> Proto 6
      | "udp" -> Proto 17
      | "icmp" -> Proto 1
      | "ip" -> Ether_ip
      | "arp" -> Ether_arp
      | "src" -> prim ~side:Src
      | "dst" -> prim ~side:Dst
      | "host" ->
        rest := "host" :: !rest;
        prim ~side:Either
      | "port" ->
        rest := "port" :: !rest;
        prim ~side:Either
      | "flag" | "flags" -> Flag (flag_mask (next ()))
      | t -> raise (Bad_filter (Printf.sprintf "unknown token %S" t))
    in
    (try
       let f = expr () in
       match !rest with
       | [] -> Ok f
       | tl -> Error ("trailing tokens: " ^ String.concat " " tl)
     with Bad_filter m -> Error m)

(* --- the ring --- *)

type entry = {
  en_t : int;
  en_dir : dir;
  en_link : int;
  en_flow : int;  (* Trace.Flow id ambient at record time, -1 = none *)
  en_len : int;  (* original on-wire length *)
  en_frame : Bytestruct.t;
  en_owner : Pktbuf.t option;  (* reference released when the ring evicts *)
}

type t = {
  c_name : string;
  c_filter : filter;
  c_snaplen : int;
  c_ring : entry option array;
  mutable c_head : int;  (* total frames written; slot = head mod capacity *)
  mutable c_matched : int;
  mutable c_evicted : int;
  mutable c_untaps : (unit -> unit) list;  (* one per attached bridge or vif *)
}

(* All live captures, oldest first: the capture plane is on while this
   is not empty, and a postmortem bundle freezes recent frames of each. *)
let live : t list ref = ref []

let name c = c.c_name
let matched c = c.c_matched
let evicted c = c.c_evicted
let stored c = min c.c_head (Array.length c.c_ring)

let release_entry = function
  | Some { en_owner = Some pb; _ } -> Pktbuf.release pb
  | _ -> ()

(* Record one frame. Zero-copy: the ambient current pktbuf (both taps
   set it when the frame is pool-backed) is retained and held until this
   ring slot is overwritten. Frames with no pool backing are copied,
   truncated to the snaplen. *)
let record c ~dir ~link ~time_ns frame =
  if filter_matches c.c_filter frame then begin
    c.c_matched <- c.c_matched + 1;
    let len = Bytestruct.length frame in
    let owner, frame =
      match Pktbuf.retain_current () with
      | Some pb -> (Some pb, frame)
      | None -> (None, Bytestruct.copy (Bytestruct.sub frame 0 (min len c.c_snaplen)))
    in
    let e =
      {
        en_t = time_ns;
        en_dir = dir;
        en_link = link;
        en_flow = Trace.Flow.current ();
        en_len = len;
        en_frame = frame;
        en_owner = owner;
      }
    in
    let slot = c.c_head mod Array.length c.c_ring in
    (match c.c_ring.(slot) with
    | Some _ as old ->
      c.c_evicted <- c.c_evicted + 1;
      release_entry old
    | None -> ());
    c.c_ring.(slot) <- Some e;
    c.c_head <- c.c_head + 1
  end

let attach_bridge c b =
  let h = Bridge.tap b (record c) in
  c.c_untaps <- (fun () -> Bridge.untap b h) :: c.c_untaps

let attach_vif c netif =
  let h = Devices.Netif.tap netif (record c) in
  c.c_untaps <- (fun () -> Devices.Netif.untap netif h) :: c.c_untaps

let entries c =
  let cap = Array.length c.c_ring in
  let n = stored c in
  List.init n (fun i ->
      match c.c_ring.((c.c_head - n + i) mod cap) with
      | Some e -> e
      | None -> assert false)

let dir_name = function Tx -> "tx" | Rx -> "rx"

type record_info = {
  r_t : int;
  r_dir : dir;
  r_link : int;
  r_flow : int;
  r_len : int;
  r_summary : string;
}

let records c =
  List.map
    (fun e ->
      {
        r_t = e.en_t;
        r_dir = e.en_dir;
        r_link = e.en_link;
        r_flow = e.en_flow;
        r_len = e.en_len;
        r_summary = summarize e.en_frame;
      })
    (entries c)

let to_pcap c =
  let b = Buffer.create 4096 in
  Formats.Pcap.add_header ~snaplen:c.c_snaplen b;
  List.iter
    (fun e ->
      let keep = min (Bytestruct.length e.en_frame) c.c_snaplen in
      Formats.Pcap.add_packet b ~ts_ns:e.en_t ~orig_len:e.en_len
        (Bytestruct.get_string e.en_frame 0 keep))
    (entries c);
  Buffer.contents b

(* Sidecar for a pcap dump: classic pcap has no per-packet comments, so
   the flow ids (and direction/link) ride in JSONL next to the capture,
   one line per packet in file order. *)
let flows_json c =
  let b = Buffer.create 1024 in
  List.iteri
    (fun i e ->
      Buffer.add_string b
        (Printf.sprintf
           "{\"idx\":%d,\"t_ns\":%d,\"dir\":\"%s\",\"link\":%d,\"flow\":%d,\"len\":%d,\"summary\":\"%s\"}\n"
           i e.en_t (dir_name e.en_dir) e.en_link e.en_flow e.en_len (summarize e.en_frame)))
    (entries c);
  Buffer.contents b

let clear c =
  Array.iteri
    (fun i e ->
      release_entry e;
      c.c_ring.(i) <- None)
    c.c_ring;
  c.c_head <- 0

let close c =
  List.iter (fun untap -> untap ()) c.c_untaps;
  c.c_untaps <- [];
  clear c;
  live := List.filter (fun c' -> c' != c) !live

(* --- the capture plane ---

   Captures join Trace's plane registry as "capture": on while any is
   live, reset by closing every live one (so [Trace.quiesce] untaps them
   and releases their frames), and, on a postmortem trip, adding the
   last few captured frames of the implicated flow to the bundle. The
   trip payloads emitted by the TCP layer carry the flow's ports as
   ("port", Int _) / ("rport", Int _); frames are filtered by those when
   present, otherwise the most recent frames are taken as-is. *)

let flight_k = 16

let rec drop n = function l when n <= 0 -> l | [] -> [] | _ :: tl -> drop (n - 1) tl

let section ~dom:_ ~payload b =
  let ports =
    List.filter_map
      (function ("port" | "rport" | "lport"), Trace.Int p -> Some p | _ -> None)
      payload
  in
  let relevant e =
    match ports with
    | [] -> true
    | ps ->
      has_ports e.en_frame && (List.mem (src_port e.en_frame) ps || List.mem (dst_port e.en_frame) ps)
  in
  List.iter
    (fun c ->
      let es = List.filter relevant (entries c) in
      let es = drop (List.length es - flight_k) es in
      List.iter
        (fun e ->
          Printf.bprintf b
            "{\"capture\":\"%s\",\"t\":%d,\"dir\":\"%s\",\"link\":%d,\"flow\":%d,\"len\":%d,\"frame\":\"%s\"}\n"
            c.c_name e.en_t (dir_name e.en_dir) e.en_link e.en_flow e.en_len (summarize e.en_frame))
        es)
    !live

(* Registered by the program's first [create], so one that never
   captures has no capture plane. *)
let plane =
  lazy
    (Trace.register_plane "capture"
       ~on:(fun () -> !live <> [])
       ~reset:(fun () -> List.iter close !live)
       ~section)

let create ?(name = "cap0") ?(capacity = 256) ?(snaplen = 65535) ?(filter = All) () =
  if capacity <= 0 then invalid_arg "Capture.create: capacity must be positive";
  if snaplen < 14 then invalid_arg "Capture.create: snaplen below an Ethernet header";
  Lazy.force plane;
  let c =
    {
      c_name = name;
      c_filter = filter;
      c_snaplen = snaplen;
      c_ring = Array.make capacity None;
      c_head = 0;
      c_matched = 0;
      c_evicted = 0;
      c_untaps = [];
    }
  in
  live := !live @ [ c ];
  c
