type value = Bool of bool | Int of int | String of string | Ip of Netstack.Ipaddr.t

type binding = { key : string; value : value; static : bool }

type t = {
  app_name : string;
  roots : string list;
  bindings : binding list;
  aslr_seed : int;
  app_text_bytes : int;
  app_loc : int;
}

exception Type_error of string

let make ~app_name ~roots ?(bindings = []) ?(aslr_seed = 0x5eed) ?(app_text_bytes = 8 * 1024)
    ?(app_loc = 600) () =
  List.iter (fun r -> ignore (Library_registry.find r)) roots;
  { app_name; roots; bindings; aslr_seed; app_text_bytes; app_loc }

let static key value = { key; value; static = true }
let dynamic key value = { key; value; static = false }

let find t key =
  List.find_map (fun b -> if b.key = key then Some b.value else None) t.bindings

let typed name extract t key =
  match find t key with
  | None -> None
  | Some v -> (
    match extract v with
    | Some x -> Some x
    | None -> raise (Type_error (Printf.sprintf "key %s is not a %s" key name)))

let ip t key = typed "ip" (function Ip v -> Some v | _ -> None) t key
let string t key = typed "string" (function String v -> Some v | _ -> None) t key
let int t key = typed "int" (function Int v -> Some v | _ -> None) t key
let bool t key = typed "bool" (function Bool v -> Some v | _ -> None) t key

let clonable t = not (List.exists (fun b -> b.static) t.bindings)
