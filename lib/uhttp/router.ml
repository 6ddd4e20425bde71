type params = (string * string) list

type 'a route = { meth : Http_wire.meth; pattern : string list; handler : params -> 'a }

type 'a t = { mutable routes : 'a route list }

let create () = { routes = [] }

let segments path =
  (* Strip any query string before splitting. *)
  let path = match String.index_opt path '?' with Some i -> String.sub path 0 i | None -> path in
  List.filter (fun s -> s <> "") (String.split_on_char '/' path)

let add t meth pattern handler =
  t.routes <- t.routes @ [ { meth; pattern = segments pattern; handler } ]

let match_pattern pattern path =
  let rec go acc pattern path =
    match (pattern, path) with
    | [], [] -> Some (List.rev acc)
    | p :: ps, s :: ss when String.length p > 0 && p.[0] = ':' ->
      go ((String.sub p 1 (String.length p - 1), s) :: acc) ps ss
    | p :: ps, s :: ss when p = s -> go acc ps ss
    | _ -> None
  in
  go [] pattern path

let dispatch t meth path =
  let path_segs = segments path in
  let rec go = function
    | [] -> None
    | r :: rest ->
      if r.meth = meth then
        match match_pattern r.pattern path_segs with
        | Some params -> Some (r.handler params)
        | None -> go rest
      else go rest
  in
  go t.routes
