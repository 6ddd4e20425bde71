type t =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | Array of t list
  | Object of (string * t) list

exception Parse_error of int * string

type state = { s : string; mutable pos : int }

let error st msg = raise (Parse_error (st.pos, msg))

let peek st = if st.pos < String.length st.s then Some st.s.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let rec skip_ws st =
  match peek st with
  | Some (' ' | '\t' | '\n' | '\r') ->
    advance st;
    skip_ws st
  | _ -> ()

let expect st c =
  match peek st with
  | Some x when x = c -> advance st
  | Some x -> error st (Printf.sprintf "expected %c, got %c" c x)
  | None -> error st (Printf.sprintf "expected %c, got end of input" c)

let literal st word value =
  if
    st.pos + String.length word <= String.length st.s
    && String.sub st.s st.pos (String.length word) = word
  then begin
    st.pos <- st.pos + String.length word;
    value
  end
  else error st ("expected " ^ word)

let parse_string_body st =
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> error st "unterminated string"
    | Some '"' ->
      advance st;
      Buffer.contents buf
    | Some '\\' -> (
      advance st;
      match peek st with
      | Some 'n' -> advance st; Buffer.add_char buf '\n'; go ()
      | Some 't' -> advance st; Buffer.add_char buf '\t'; go ()
      | Some 'r' -> advance st; Buffer.add_char buf '\r'; go ()
      | Some 'b' -> advance st; Buffer.add_char buf '\b'; go ()
      | Some 'f' -> advance st; Buffer.add_char buf '\012'; go ()
      | Some '"' -> advance st; Buffer.add_char buf '"'; go ()
      | Some '\\' -> advance st; Buffer.add_char buf '\\'; go ()
      | Some '/' -> advance st; Buffer.add_char buf '/'; go ()
      | Some 'u' ->
        advance st;
        if st.pos + 4 > String.length st.s then error st "bad \\u escape";
        let hex = String.sub st.s st.pos 4 in
        (match int_of_string_opt ("0x" ^ hex) with
        | None -> error st "bad \\u escape"
        | Some code ->
          st.pos <- st.pos + 4;
          (* encode as UTF-8 *)
          if code < 0x80 then Buffer.add_char buf (Char.chr code)
          else if code < 0x800 then begin
            Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
            Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
          end
          else begin
            Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
            Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
            Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
          end;
          go ())
      | _ -> error st "bad escape")
    | Some c ->
      advance st;
      Buffer.add_char buf c;
      go ()
  in
  go ()

let parse_number st =
  let start = st.pos in
  let is_num c = (c >= '0' && c <= '9') || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E' in
  let rec go () = match peek st with Some c when is_num c -> advance st; go () | _ -> () in
  go ();
  match float_of_string_opt (String.sub st.s start (st.pos - start)) with
  | Some f -> Number f
  | None -> error st "malformed number"

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> error st "unexpected end of input"
  | Some '{' ->
    advance st;
    skip_ws st;
    if peek st = Some '}' then begin
      advance st;
      Object []
    end
    else begin
      let rec members acc =
        skip_ws st;
        expect st '"';
        let key = parse_string_body st in
        skip_ws st;
        expect st ':';
        let v = parse_value st in
        skip_ws st;
        match peek st with
        | Some ',' ->
          advance st;
          members ((key, v) :: acc)
        | Some '}' ->
          advance st;
          Object (List.rev ((key, v) :: acc))
        | _ -> error st "expected , or } in object"
      in
      members []
    end
  | Some '[' ->
    advance st;
    skip_ws st;
    if peek st = Some ']' then begin
      advance st;
      Array []
    end
    else begin
      let rec elements acc =
        let v = parse_value st in
        skip_ws st;
        match peek st with
        | Some ',' ->
          advance st;
          elements (v :: acc)
        | Some ']' ->
          advance st;
          Array (List.rev (v :: acc))
        | _ -> error st "expected , or ] in array"
      in
      elements []
    end
  | Some '"' ->
    advance st;
    String (parse_string_body st)
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some 'n' -> literal st "null" Null
  | Some _ -> parse_number st

let parse s =
  let st = { s; pos = 0 } in
  let v = parse_value st in
  skip_ws st;
  if st.pos <> String.length s then error st "trailing garbage";
  v

let escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let number_to_string f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%g" f

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Number f -> Buffer.add_string buf (number_to_string f)
  | String s -> Buffer.add_string buf ("\"" ^ escape s ^ "\"")
  | Array vs ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char buf ',';
        write buf v)
      vs;
    Buffer.add_char buf ']'
  | Object ms ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_string buf ("\"" ^ escape k ^ "\":");
        write buf v)
      ms;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 64 in
  write buf v;
  Buffer.contents buf

let member key = function Object ms -> List.assoc_opt key ms | _ -> None
