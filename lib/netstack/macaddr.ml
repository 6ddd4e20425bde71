type t = string

let broadcast = "\xff\xff\xff\xff\xff\xff"

let of_bytes s =
  if String.length s <> 6 then invalid_arg "Macaddr.of_bytes: need 6 bytes";
  s

let to_bytes t = t

let equal = String.equal
let compare = String.compare

let get buf off = Bytestruct.get_string buf off 6
let set buf off t = Bytestruct.set_string buf off t
