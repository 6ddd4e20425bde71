type t = int32

let any = 0l
let broadcast = 0xFFFFFFFFl

let v4 a b c d =
  List.iter
    (fun x -> if x < 0 || x > 255 then invalid_arg "Ipaddr.v4: octet out of range")
    [ a; b; c; d ];
  Int32.logor
    (Int32.shift_left (Int32.of_int a) 24)
    (Int32.of_int ((b lsl 16) lor (c lsl 8) lor d))

let of_string s =
  match String.split_on_char '.' s with
  | [ a; b; c; d ] -> (
    match (int_of_string_opt a, int_of_string_opt b, int_of_string_opt c, int_of_string_opt d) with
    | Some a, Some b, Some c, Some d -> v4 a b c d
    | _ -> invalid_arg ("Ipaddr.of_string: " ^ s))
  | _ -> invalid_arg ("Ipaddr.of_string: " ^ s)

let to_string t =
  let b i = Int32.to_int (Int32.logand (Int32.shift_right_logical t i) 0xffl) in
  Printf.sprintf "%d.%d.%d.%d" (b 24) (b 16) (b 8) (b 0)

let of_int32 x = x
let to_int32 t = t
let equal = Int32.equal
let compare = Int32.compare
let hash t = Int32.to_int t land max_int

let same_subnet ~netmask a b =
  Int32.equal (Int32.logand a netmask) (Int32.logand b netmask)

let get buf off = Bytestruct.BE.get_uint32 buf off
let set buf off t = Bytestruct.BE.set_uint32 buf off t
