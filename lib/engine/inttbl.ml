(* Integer keys hashed and compared as integers: the polymorphic
   [Hashtbl] calls the generic [caml_hash] and [compare] on every
   probe. The mix spreads keys that differ only in their high bits (a
   MAC as an int ends in a constant byte) and keeps sequential keys
   (grant refs, event-channel ports) in distinct buckets. *)
include Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b

  let hash x =
    let x = x * 0x9E3779B97F4A7C1 in
    (x lxor (x lsr 29)) land max_int
end)
