(* The running sum is one immediate int: bit 0 is the parity of the bytes
   added so far, the bits above it an unfolded network-order sum. A view
   starting at an odd stream offset has its 16-bit words straddle the
   stream's, which in one's-complement arithmetic is a byte swap of its
   folded sum (RFC 1071 §2(B)); so is the step from native to network
   order. *)

let swap16 s = ((s land 0xff) lsl 8) lor (s lsr 8)

let pseudo ~src ~dst ~proto ~len =
  let src = Ipaddr.to_int src and dst = Ipaddr.to_int dst in
  let sum =
    (src lsr 16) + (src land 0xffff) + (dst lsr 16) + (dst land 0xffff) + proto + (len land 0xffff)
  in
  sum lsl 1

let add acc buf ~off ~len =
  let s = Bytestruct.sum16_ne buf off len in
  let odd = acc land 1 = 1 in
  let s = if odd = Sys.big_endian then swap16 s else s in
  (((acc lsr 1) + s) lsl 1) lor ((acc lxor len) land 1)

let finish acc =
  let s = ref (acc lsr 1) in
  while !s > 0xffff do
    s := (!s land 0xffff) + (!s lsr 16)
  done;
  lnot !s land 0xffff

let ones_complement buf = finish (add 0 buf ~off:0 ~len:(Bytestruct.length buf))
