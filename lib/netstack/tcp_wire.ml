module Seq = struct
  type t = int  (* invariant: 0 <= t < 2^32 *)

  let mask = 0xFFFFFFFF
  let zero = 0
  let of_int x = x land mask
  let to_int t = t
  let add t n = (t + n) land mask

  let diff a b =
    let d = (a - b) land mask in
    if d >= 0x80000000 then d - 0x100000000 else d

  let lt a b = diff a b < 0
  let leq a b = diff a b <= 0
  let gt a b = diff a b > 0
  let geq a b = diff a b >= 0
  let equal a b = a = b
  let max a b = if geq a b then a else b
end

type flags = { syn : bool; ack : bool; fin : bool; rst : bool; psh : bool }

let flags_none = { syn = false; ack = false; fin = false; rst = false; psh = false }

type option_ = Mss of int | Window_scale of int

type segment = {
  src_port : int;
  dst_port : int;
  seq : Seq.t;
  ack : Seq.t;
  flags : flags;
  window : int;
  options : option_ list;
  payload : Bytestruct.t;
}

let base_header = 20

let options_bytes options =
  let raw =
    List.fold_left
      (fun acc -> function Mss _ -> acc + 4 | Window_scale _ -> acc + 3)
      0 options
  in
  (raw + 3) / 4 * 4

let encode_flags f =
  (if f.fin then 0x01 else 0)
  lor (if f.syn then 0x02 else 0)
  lor (if f.rst then 0x04 else 0)
  lor (if f.psh then 0x08 else 0)
  lor if f.ack then 0x10 else 0

let encode ~src ~dst seg =
  let opt_len = options_bytes seg.options in
  let hlen = base_header + opt_len in
  let h = Bytestruct.create hlen in
  Bytestruct.BE.set_uint16 h 0 seg.src_port;
  Bytestruct.BE.set_uint16 h 2 seg.dst_port;
  Bytestruct.BE.set_uint32_int h 4 (Seq.to_int seg.seq);
  Bytestruct.BE.set_uint32_int h 8 (Seq.to_int seg.ack);
  Bytestruct.BE.set_uint16 h 12 (((hlen / 4) lsl 12) lor encode_flags seg.flags);
  Bytestruct.BE.set_uint16 h 14 seg.window;
  Bytestruct.BE.set_uint16 h 16 0;
  Bytestruct.BE.set_uint16 h 18 0;
  let off = ref base_header in
  List.iter
    (function
      | Mss v ->
        Bytestruct.set_uint8 h !off 2;
        Bytestruct.set_uint8 h (!off + 1) 4;
        Bytestruct.BE.set_uint16 h (!off + 2) v;
        off := !off + 4
      | Window_scale v ->
        Bytestruct.set_uint8 h !off 3;
        Bytestruct.set_uint8 h (!off + 1) 3;
        Bytestruct.set_uint8 h (!off + 2) v;
        off := !off + 3)
    seg.options;
  while !off < hlen do
    Bytestruct.set_uint8 h !off 1 (* NOP padding *);
    incr off
  done;
  let total = hlen + Bytestruct.length seg.payload in
  let csum = Checksum.pseudo ~src ~dst ~proto:6 ~len:total in
  let csum = Checksum.add csum h ~off:0 ~len:hlen in
  let csum = Checksum.add csum seg.payload ~off:0 ~len:(Bytestruct.length seg.payload) in
  let csum = Checksum.finish csum in
  Bytestruct.BE.set_uint16 h 16 csum;
  [ h; seg.payload ]

let decode_options buf hlen =
  let rec go off acc =
    if off >= hlen then List.rev acc
    else
      match Bytestruct.get_uint8 buf off with
      | 0 -> List.rev acc (* end of options *)
      | 1 -> go (off + 1) acc (* NOP *)
      | 2 when off + 4 <= hlen -> go (off + 4) (Mss (Bytestruct.BE.get_uint16 buf (off + 2)) :: acc)
      | 3 when off + 3 <= hlen -> go (off + 3) (Window_scale (Bytestruct.get_uint8 buf (off + 2)) :: acc)
      | _ ->
        (* Unknown option: skip by its length byte if plausible. *)
        if off + 1 < hlen then begin
          let l = Bytestruct.get_uint8 buf (off + 1) in
          if l >= 2 && off + l <= hlen then go (off + l) acc else List.rev acc
        end
        else List.rev acc
  in
  go base_header []

let decode ~src ~dst buf =
  if Bytestruct.length buf < base_header then Error `Too_short
  else begin
    let data_off = (Bytestruct.BE.get_uint16 buf 12 lsr 12) * 4 in
    if data_off < base_header || data_off > Bytestruct.length buf then Error `Too_short
    else if
      let len = Bytestruct.length buf in
      Checksum.finish (Checksum.add (Checksum.pseudo ~src ~dst ~proto:6 ~len) buf ~off:0 ~len) <> 0
    then Error `Bad_checksum
    else begin
      let fl = Bytestruct.BE.get_uint16 buf 12 land 0x3f in
      Ok
        {
          src_port = Bytestruct.BE.get_uint16 buf 0;
          dst_port = Bytestruct.BE.get_uint16 buf 2;
          seq = Seq.of_int (Bytestruct.BE.get_uint32_int buf 4);
          ack = Seq.of_int (Bytestruct.BE.get_uint32_int buf 8);
          flags =
            {
              fin = fl land 0x01 <> 0;
              syn = fl land 0x02 <> 0;
              rst = fl land 0x04 <> 0;
              psh = fl land 0x08 <> 0;
              ack = fl land 0x10 <> 0;
            };
          window = Bytestruct.BE.get_uint16 buf 14;
          options = decode_options buf data_off;
          payload = Bytestruct.shift buf data_off;
        }
    end
  end
