type impl = Hashtable | Fmap

module type S = sig
  type t

  val create : unit -> t
  val find_longest : t -> Dns_name.t -> (int * int) option
  val add : t -> Dns_name.t -> start:int -> int -> unit
  val entries : t -> int
end

(* A key is a name and the label boundary its suffix starts at. *)
type key = string * int

let rec bytes_compare a i b j n =
  if n = 0 then 0
  else
    let c = Char.compare (String.unsafe_get a i) (String.unsafe_get b j) in
    if c <> 0 then c else bytes_compare a (i + 1) b (j + 1) (n - 1)

(* The paper's customised ordering: total size first, which is O(1) and
   rejects most pairs immediately, then contents. *)
let key_compare ((a, i) : key) ((b, j) : key) =
  let la = String.length a - i and lb = String.length b - j in
  if la <> lb then Int.compare la lb else bytes_compare a i b j la

(* Probe suffixes longest first: every label boundary of [s] from [p]. *)
let rec longest find t s p =
  if p >= String.length s then None
  else
    match find t (s, p) with
    | Some off -> Some (p, off)
    | None -> longest find t s (p + 1 + Char.code (String.unsafe_get s p))

module Hashtable : S = struct
  (* The naive approach: a fixed, unkeyed hash (FNV-1a over the suffix's
     octets). An attacker who can pick query names can force collisions. *)
  module H = Hashtbl.Make (struct
    type t = key

    let equal a b = key_compare a b = 0

    let hash ((s, i) : key) =
      let h = ref 0x811c9dc5 in
      for k = i to String.length s - 1 do
        h := (!h lxor Char.code (String.unsafe_get s k)) * 0x01000193
      done;
      !h land max_int
  end)

  type t = int H.t

  let create () = H.create 17
  let find_longest t (name : Dns_name.t) = longest H.find_opt t (name :> string) 0

  let add t (name : Dns_name.t) ~start offset =
    let k = ((name :> string), start) in
    if offset < 0x4000 && not (H.mem t k) then H.replace t k offset

  let entries = H.length
end

module Fmap : S = struct
  (* Functional map under the size-first ordering; as a balanced tree it
     is immune to hash collisions. *)
  module M = Map.Make (struct
    type t = key

    let compare = key_compare
  end)

  type t = int M.t ref

  let create () = ref M.empty
  let find_longest t (name : Dns_name.t) = longest (fun t k -> M.find_opt k !t) t (name :> string) 0

  let add t (name : Dns_name.t) ~start offset =
    let k = ((name :> string), start) in
    if offset < 0x4000 && not (M.mem k !t) then t := M.add k offset !t

  let entries t = M.cardinal !t
end

type table = T : (module S with type t = 'a) * 'a -> table

let create = function
  | Hashtable -> T ((module Hashtable), Hashtable.create ())
  | Fmap -> T ((module Fmap), Fmap.create ())

let find_longest (T ((module M), t)) name = M.find_longest t name
let add (T ((module M), t)) name ~start offset = M.add t name ~start offset
let entries (T ((module M), t)) = M.entries t
