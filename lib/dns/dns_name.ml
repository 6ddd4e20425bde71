type t = string list

let of_string s =
  let s = String.lowercase_ascii s in
  let s = if String.length s > 0 && s.[String.length s - 1] = '.' then String.sub s 0 (String.length s - 1) else s in
  if s = "" then [] else String.split_on_char '.' s

let to_string = function [] -> "." | labels -> String.concat "." labels

let equal a b = a = b
let compare = compare

let rec suffixes = function [] -> [] | _ :: rest as l -> l :: suffixes rest

let is_suffix ~suffix name =
  let ls = List.length suffix and ln = List.length name in
  ls <= ln
  &&
  let rec drop n l = if n = 0 then l else match l with [] -> [] | _ :: r -> drop (n - 1) r in
  drop (ln - ls) name = suffix

let encoded_length t = List.fold_left (fun acc l -> acc + 1 + String.length l) 1 t

