type t = { origin : Dns_name.t; default_ttl : int; records : Dns_wire.rr list }

exception Parse_error of int * string

let strip_comment line =
  (* ';' starts a comment (we do not support quoted ';' in TXT for
     simplicity; TXT values here are unquoted single tokens or "..."). *)
  let in_quote = ref false in
  let buf = Buffer.create (String.length line) in
  (try
     String.iter
       (fun c ->
         if c = '"' then in_quote := not !in_quote;
         if c = ';' && not !in_quote then raise Exit;
         Buffer.add_char buf c)
       line
   with Exit -> ());
  Buffer.contents buf

let tokenize s =
  List.filter (fun t -> t <> "") (String.split_on_char ' ' (String.map (function '\t' -> ' ' | c -> c) s))

(* Join continuation lines between parentheses. *)
let logical_lines text =
  let lines = String.split_on_char '\n' text in
  let out = ref [] in
  let acc = Buffer.create 80 in
  let depth = ref 0 in
  let start_line = ref 0 in
  List.iteri
    (fun i raw ->
      let line = strip_comment raw in
      let opens = String.fold_left (fun n c -> if c = '(' then n + 1 else n) 0 line in
      let closes = String.fold_left (fun n c -> if c = ')' then n + 1 else n) 0 line in
      if !depth = 0 then start_line := i + 1;
      Buffer.add_string acc (String.map (function '(' | ')' -> ' ' | c -> c) line);
      Buffer.add_char acc ' ';
      depth := !depth + opens - closes;
      if !depth < 0 then raise (Parse_error (i + 1, "unbalanced parentheses"));
      if !depth = 0 then begin
        out := (!start_line, Buffer.contents acc) :: !out;
        Buffer.clear acc
      end)
    lines;
  if !depth <> 0 then raise (Parse_error (List.length lines, "unclosed parenthesis"));
  List.rev !out

(* A name that breaks RFC 1035's limits is the zone file's error, at
   this line. *)
let name_at lineno f = try f () with Invalid_argument msg -> raise (Parse_error (lineno, msg))

let absolute lineno origin name =
  name_at lineno (fun () ->
      if name = "@" then origin
      else if String.length name > 0 && name.[String.length name - 1] = '.' then Dns_name.of_string name
      else Dns_name.append (Dns_name.of_string name) origin)

let parse_u lineno s =
  match int_of_string_opt s with
  | Some v when v >= 0 -> v
  | _ -> raise (Parse_error (lineno, "expected unsigned integer, got " ^ s))

let unquote s =
  if String.length s >= 2 && s.[0] = '"' && s.[String.length s - 1] = '"' then
    String.sub s 1 (String.length s - 2)
  else s

let parse ~origin text =
  let origin = ref (Dns_name.of_string origin) in
  let default_ttl = ref 3600 in
  let last_name = ref None in
  let records = ref [] in
  let handle_record lineno ~indented tokens =
    (* [name] [ttl] [IN] TYPE rdata. Per RFC 1035, the name is omitted
       (meaning "previous name") exactly when the line starts with
       whitespace — names like "txt" that collide with type mnemonics
       are therefore unambiguous. *)
    let name, rest =
      if indented then (
        match !last_name with
        | Some n -> (n, tokens)
        | None -> raise (Parse_error (lineno, "record with no name")))
      else
        match tokens with
        | first :: rest ->
          let n = absolute lineno !origin first in
          last_name := Some n;
          (n, rest)
        | [] -> raise (Parse_error (lineno, "empty record"))
    in
    let ttl, rest =
      match rest with
      | t :: rest' when int_of_string_opt t <> None -> (parse_u lineno t, rest')
      | _ -> (!default_ttl, rest)
    in
    let rest = match rest with "IN" :: r -> r | r -> r in
    let rdata =
      match rest with
      | [ "A"; ip ] -> Dns_wire.A_data (Netstack.Ipaddr.of_string ip)
      | [ "NS"; n ] -> Dns_wire.NS_data (absolute lineno !origin n)
      | [ "CNAME"; n ] -> Dns_wire.CNAME_data (absolute lineno !origin n)
      | [ "PTR"; n ] -> Dns_wire.PTR_data (absolute lineno !origin n)
      | [ "MX"; pref; n ] -> Dns_wire.MX_data (parse_u lineno pref, absolute lineno !origin n)
      | "TXT" :: data -> Dns_wire.TXT_data (unquote (String.concat " " data))
      | [ "SOA"; mname; rname; serial; refresh; retry; expire; minimum ] ->
        Dns_wire.SOA_data
          {
            mname = absolute lineno !origin mname;
            rname = absolute lineno !origin rname;
            serial = parse_u lineno serial;
            refresh = parse_u lineno refresh;
            retry = parse_u lineno retry;
            expire = parse_u lineno expire;
            minimum = parse_u lineno minimum;
          }
      | t :: _ -> raise (Parse_error (lineno, "unsupported record type or bad rdata: " ^ t))
      | [] -> raise (Parse_error (lineno, "missing record type"))
    in
    records := { Dns_wire.name; ttl; rdata } :: !records
  in
  List.iter
    (fun (lineno, line) ->
      let indented = String.length line > 0 && (line.[0] = ' ' || line.[0] = '\t') in
      match tokenize line with
      | [] -> ()
      | [ "$TTL"; v ] -> default_ttl := parse_u lineno v
      | [ "$ORIGIN"; v ] -> origin := name_at lineno (fun () -> Dns_name.of_string v)
      | tokens -> handle_record lineno ~indented tokens)
    (logical_lines text);
  { origin = !origin; default_ttl = !default_ttl; records = List.rev !records }

let synthesize ~origin ~entries =
  let o = Dns_name.of_string origin in
  let soa =
    {
      Dns_wire.name = o;
      ttl = 3600;
      rdata =
        Dns_wire.SOA_data
          {
            mname = Dns_name.cons "ns1" o;
            rname = Dns_name.cons "hostmaster" o;
            serial = 2013031600;
            refresh = 7200;
            retry = 1800;
            expire = 1209600;
            minimum = 300;
          };
    }
  in
  let ns = { Dns_wire.name = o; ttl = 3600; rdata = Dns_wire.NS_data (Dns_name.cons "ns1" o) } in
  let ns_a =
    {
      Dns_wire.name = Dns_name.cons "ns1" o;
      ttl = 3600;
      rdata = Dns_wire.A_data (Netstack.Ipaddr.v4 10 1 0 1);
    }
  in
  let hosts =
    List.init entries (fun i ->
        {
          Dns_wire.name = Dns_name.cons (Printf.sprintf "host-%d" i) o;
          ttl = 3600;
          rdata =
            Dns_wire.A_data
              (Netstack.Ipaddr.v4 10 ((i lsr 16) land 0xff) ((i lsr 8) land 0xff) (i land 0xff));
        })
  in
  { origin = o; default_ttl = 3600; records = soa :: ns :: ns_a :: hosts }

let rdata_to_string = function
  | Dns_wire.A_data ip -> Printf.sprintf "A %s" (Netstack.Ipaddr.to_string ip)
  | Dns_wire.NS_data n -> Printf.sprintf "NS %s." (Dns_name.to_string n)
  | Dns_wire.CNAME_data n -> Printf.sprintf "CNAME %s." (Dns_name.to_string n)
  | Dns_wire.PTR_data n -> Printf.sprintf "PTR %s." (Dns_name.to_string n)
  | Dns_wire.MX_data (p, n) -> Printf.sprintf "MX %d %s." p (Dns_name.to_string n)
  | Dns_wire.TXT_data s -> Printf.sprintf "TXT \"%s\"" s
  | Dns_wire.SOA_data s ->
    Printf.sprintf "SOA %s. %s. %d %d %d %d %d" (Dns_name.to_string s.mname)
      (Dns_name.to_string s.rname) s.serial s.refresh s.retry s.expire s.minimum
  | Dns_wire.AAAA_data _ | Dns_wire.Raw_data _ -> "; unsupported"

let to_string t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "$TTL %d\n$ORIGIN %s.\n" t.default_ttl (Dns_name.to_string t.origin));
  List.iter
    (fun (r : Dns_wire.rr) ->
      Buffer.add_string buf
        (Printf.sprintf "%s. %d IN %s\n" (Dns_name.to_string r.Dns_wire.name) r.Dns_wire.ttl
           (rdata_to_string r.Dns_wire.rdata)))
    t.records;
  Buffer.contents buf
