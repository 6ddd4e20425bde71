type t = { buffer : bytes; off : int; len : int }

let create n =
  if n < 0 then invalid_arg "Bytestruct.create: negative length";
  { buffer = Bytes.make n '\000'; off = 0; len = n }

let of_bytes b = { buffer = b; off = 0; len = Bytes.length b }
let of_string s = of_bytes (Bytes.of_string s)

let length t = t.len

let check_view t off len =
  if off < 0 || len < 0 || off + len > t.len then
    invalid_arg
      (Printf.sprintf "Bytestruct: view [%d,%d) outside buffer of length %d" off (off + len) t.len)

let view ?(off = 0) ?len t =
  let len = match len with Some l -> l | None -> t.len - off in
  check_view t off len;
  { buffer = t.buffer; off = t.off + off; len }

let sub t off len = view ~off ~len t
let shift t n = view ~off:n t
let split t n = (sub t 0 n, shift t n)

let to_string t = Bytes.sub_string t.buffer t.off t.len

external unsafe_get16 : bytes -> int -> int = "%caml_bytes_get16u"
external unsafe_get64 : bytes -> int -> int64 = "%caml_bytes_get64u"

(* Compare in place: these run on the datapath (dedup checks, ordered
   containers, a receiver checking every byte), so they must not
   allocate intermediate strings. The common prefix is skipped one
   unaligned 64-bit load at a time; the bytes of the first differing
   word (or the short tail) then decide, so the order stays
   lexicographic whatever the host's endianness. *)
let rec compare_bytes a b n i =
  if i = n then Stdlib.compare a.len b.len
  else
    let ca = Bytes.unsafe_get a.buffer (a.off + i) and cb = Bytes.unsafe_get b.buffer (b.off + i) in
    if ca = cb then compare_bytes a b n (i + 1) else Char.compare ca cb

let compare a b =
  let n = if a.len < b.len then a.len else b.len in
  let i = ref 0 in
  while
    !i + 8 <= n
    && (unsafe_get64 a.buffer (a.off + !i) : int64) = unsafe_get64 b.buffer (b.off + !i)
  do
    i := !i + 8
  done;
  compare_bytes a b n !i

let equal a b = a.len = b.len && compare a b = 0

let blit src srcoff dst dstoff len =
  check_view src srcoff len;
  check_view dst dstoff len;
  Bytes.blit src.buffer (src.off + srcoff) dst.buffer (dst.off + dstoff) len

let fill t c = Bytes.fill t.buffer t.off t.len c

let copy t =
  let fresh = create t.len in
  blit t 0 fresh 0 t.len;
  fresh

let lenv ts = List.fold_left (fun acc t -> acc + t.len) 0 ts

let bounds t off n =
  if off < 0 || off + n > t.len then
    invalid_arg
      (Printf.sprintf "Bytestruct: access [%d,%d) outside buffer of length %d" off (off + n) t.len)

let get_uint8 t off =
  bounds t off 1;
  Char.code (Bytes.get t.buffer (t.off + off))

let set_uint8 t off v =
  bounds t off 1;
  Bytes.set t.buffer (t.off + off) (Char.chr (v land 0xff))

(* Unsigned 32-bit fields as plain ints: the [int32] accessors return a
   boxed [Int32] whenever the call is not inlined, which costs a ring
   index or a grant ref 3 words per read. *)
external unsafe_get32 : bytes -> int -> int32 = "%caml_bytes_get32u"
external unsafe_set32 : bytes -> int -> int32 -> unit = "%caml_bytes_set32u"
external swap32 : int32 -> int32 = "%bswap_int32"

let get_u32 ~swap t off =
  bounds t off 4;
  let v = unsafe_get32 t.buffer (t.off + off) in
  Int32.to_int (if swap then swap32 v else v) land 0xFFFF_FFFF

let set_u32 ~swap t off v =
  bounds t off 4;
  let v = Int32.of_int v in
  unsafe_set32 t.buffer (t.off + off) (if swap then swap32 v else v)

module BE = struct
  let get_uint16 t off =
    bounds t off 2;
    Bytes.get_uint16_be t.buffer (t.off + off)

  let set_uint16 t off v =
    bounds t off 2;
    Bytes.set_uint16_be t.buffer (t.off + off) (v land 0xffff)

  let get_uint32 t off =
    bounds t off 4;
    Bytes.get_int32_be t.buffer (t.off + off)

  let set_uint32 t off v =
    bounds t off 4;
    Bytes.set_int32_be t.buffer (t.off + off) v

  let get_uint32_int t off = get_u32 ~swap:(not Sys.big_endian) t off
  let set_uint32_int t off v = set_u32 ~swap:(not Sys.big_endian) t off v
end

module LE = struct
  let get_uint16 t off =
    bounds t off 2;
    Bytes.get_uint16_le t.buffer (t.off + off)

  let set_uint16 t off v =
    bounds t off 2;
    Bytes.set_uint16_le t.buffer (t.off + off) (v land 0xffff)

  let set_uint32 t off v =
    bounds t off 4;
    Bytes.set_int32_le t.buffer (t.off + off) v

  let get_uint32_int t off = get_u32 ~swap:Sys.big_endian t off
  let set_uint32_int t off v = set_u32 ~swap:Sys.big_endian t off v

  let get_uint64 t off =
    bounds t off 8;
    Bytes.get_int64_le t.buffer (t.off + off)

  let set_uint64 t off v =
    bounds t off 8;
    Bytes.set_int64_le t.buffer (t.off + off) v
end

(* Eight bytes per iteration, one 64-bit load split into its two unsigned
   32-bit halves and added to a 63-bit accumulator (2^29 iterations before
   it could overflow); then 16-bit loads, then the odd byte as the first
   byte of a zero-padded word. One bounds check covers every load. *)
let sum16_ne t off len =
  check_view t off len;
  let b = t.buffer in
  let stop = t.off + off + len in
  let i = ref (t.off + off) and acc = ref 0 in
  while !i + 8 <= stop do
    let w = unsafe_get64 b !i in
    acc :=
      !acc
      + Int64.to_int (Int64.shift_right_logical w 32)
      + Int64.to_int (Int64.logand w 0xffff_ffffL);
    i := !i + 8
  done;
  while !i + 2 <= stop do
    acc := !acc + unsafe_get16 b !i;
    i := !i + 2
  done;
  if !i < stop then begin
    let last = Char.code (Bytes.unsafe_get b !i) in
    acc := !acc + if Sys.big_endian then last lsl 8 else last
  end;
  let s = ref !acc in
  while !s > 0xffff do
    s := (!s land 0xffff) + (!s lsr 16)
  done;
  !s

let get_string t off len =
  bounds t off len;
  Bytes.sub_string t.buffer (t.off + off) len

let set_string t off s =
  let len = String.length s in
  bounds t off len;
  Bytes.blit_string s 0 t.buffer (t.off + off) len
