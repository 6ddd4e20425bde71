(* An address is its 32-bit value as an immediate [int] in [0, 2^32):
   reading, comparing and hashing it allocate nothing, and [compare] is
   the unsigned order. *)
type t = int

let any = 0
let broadcast = 0xFFFF_FFFF

let v4 a b c d =
  List.iter
    (fun x -> if x < 0 || x > 255 then invalid_arg "Ipaddr.v4: octet out of range")
    [ a; b; c; d ];
  (a lsl 24) lor (b lsl 16) lor (c lsl 8) lor d

let of_string s =
  match String.split_on_char '.' s with
  | [ a; b; c; d ] -> (
    match (int_of_string_opt a, int_of_string_opt b, int_of_string_opt c, int_of_string_opt d) with
    | Some a, Some b, Some c, Some d -> v4 a b c d
    | _ -> invalid_arg ("Ipaddr.of_string: " ^ s))
  | _ -> invalid_arg ("Ipaddr.of_string: " ^ s)

let to_string t =
  Printf.sprintf "%d.%d.%d.%d" (t lsr 24) ((t lsr 16) land 0xff) ((t lsr 8) land 0xff) (t land 0xff)

let of_int32 x = Int32.to_int x land 0xFFFF_FFFF
let to_int32 t = Int32.of_int t
let to_int t = t
let equal (a : int) b = a = b
let compare (a : int) b = Int.compare a b
let same_subnet ~netmask a b = a land netmask = b land netmask
let get buf off = Bytestruct.BE.get_uint32_int buf off
let set buf off t = Bytestruct.BE.set_uint32_int buf off t
