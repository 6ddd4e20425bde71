type t = string

let broadcast = "\xff\xff\xff\xff\xff\xff"

let of_bytes s =
  if String.length s <> 6 then invalid_arg "Macaddr.of_bytes: need 6 bytes";
  s

let of_string s =
  match String.split_on_char ':' s with
  | [ a; b; c; d; e; f ] ->
    let byte h =
      match int_of_string_opt ("0x" ^ h) with
      | Some v when v >= 0 && v <= 0xff -> Char.chr v
      | _ -> invalid_arg ("Macaddr.of_string: bad byte " ^ h)
    in
    let buf = Bytes.create 6 in
    List.iteri (fun i h -> Bytes.set buf i (byte h)) [ a; b; c; d; e; f ];
    Bytes.to_string buf
  | _ -> invalid_arg ("Macaddr.of_string: " ^ s)

let to_bytes t = t

let to_string t =
  String.concat ":" (List.init 6 (fun i -> Printf.sprintf "%02x" (Char.code t.[i])))

let equal = String.equal
let compare = String.compare
let is_broadcast t = t = broadcast

let get buf off = Bytestruct.get_string buf off 6
let set buf off t = Bytestruct.set_string buf off t
