type watch_id = int

type watch = { id : watch_id; prefix : string; callback : path:string -> value:string -> unit }

type t = {
  nodes : (string, string) Hashtbl.t;
  mutable watches : watch list;
  mutable next_watch : int;
}

let create () = { nodes = Hashtbl.create 64; watches = []; next_watch = 1 }

let normalise path =
  if path = "" || path.[0] <> '/' then invalid_arg "Xenstore: paths must start with '/'";
  if String.length path > 1 && path.[String.length path - 1] = '/' then
    String.sub path 0 (String.length path - 1)
  else path

let under ~prefix path =
  path = prefix
  || String.length path > String.length prefix
     && String.sub path 0 (String.length prefix) = prefix
     && (prefix = "/" || path.[String.length prefix] = '/')

let write t ~path value =
  let path = normalise path in
  Hashtbl.replace t.nodes path value;
  List.iter
    (fun w -> if under ~prefix:w.prefix path then w.callback ~path ~value)
    t.watches

let read t ~path = Hashtbl.find_opt t.nodes (normalise path)

let rm t ~path =
  let path = normalise path in
  let doomed = Hashtbl.fold (fun k _ acc -> if under ~prefix:path k then k :: acc else acc) t.nodes [] in
  List.iter (Hashtbl.remove t.nodes) doomed

let directory t ~path =
  let path = normalise path in
  let plen = if path = "/" then 1 else String.length path + 1 in
  let children =
    Hashtbl.fold
      (fun k _ acc ->
        if k <> path && under ~prefix:path k then begin
          let rest = String.sub k plen (String.length k - plen) in
          let child = match String.index_opt rest '/' with Some i -> String.sub rest 0 i | None -> rest in
          if List.mem child acc then acc else child :: acc
        end
        else acc)
      t.nodes []
  in
  List.sort compare children

let watch t ~path f =
  let prefix = normalise path in
  let id = t.next_watch in
  t.next_watch <- id + 1;
  t.watches <- { id; prefix; callback = f } :: t.watches;
  (* XenStore fires watches once for existing state on registration. *)
  Hashtbl.iter (fun k v -> if under ~prefix k then f ~path:k ~value:v) t.nodes;
  id

let unwatch t id = t.watches <- List.filter (fun w -> w.id <> id) t.watches
