type t = string

(* RFC 1035 §2.3.4: labels of 63 octets or less, names of 255 octets or
   less on the wire. The string omits the root byte, so it holds at most
   254. *)
let max_label = 63
let max_length = 254

let check_label n =
  if n = 0 then invalid_arg "Dns_name: empty label";
  if n > max_label then invalid_arg "Dns_name: label over 63 octets"

let check_length n = if n > max_length then invalid_arg "Dns_name: name over 255 octets"

(* A dotted label running from [start] to [stop] has its length byte at
   [start] in the wire form and its octets one place to the right. *)
let rec fill_dotted s n b start =
  let stop = match String.index_from_opt s start '.' with Some i when i < n -> i | _ -> n in
  check_label (stop - start);
  Bytes.set b start (Char.chr (stop - start));
  for i = start to stop - 1 do
    Bytes.set b (i + 1) (Char.lowercase_ascii s.[i])
  done;
  if stop < n then fill_dotted s n b (stop + 1)

let of_string s =
  let n = String.length s in
  let n = if n > 0 && s.[n - 1] = '.' then n - 1 else n in
  if n = 0 then ""
  else begin
    check_length (n + 1);
    let b = Bytes.create (n + 1) in
    fill_dotted s n b 0;
    Bytes.unsafe_to_string b
  end

let to_string s =
  let n = String.length s in
  if n = 0 then "."
  else begin
    let b = Bytes.create (n - 1) in
    let rec go p =
      if p < n then begin
        let l = Char.code s.[p] in
        if p > 0 then Bytes.set b (p - 1) '.';
        Bytes.blit_string s (p + 1) b p l;
        go (p + 1 + l)
      end
    in
    go 0;
    Bytes.unsafe_to_string b
  end

let labels s =
  let rec go p =
    if p >= String.length s then []
    else
      let l = Char.code s.[p] in
      String.sub s (p + 1) l :: go (p + 1 + l)
  in
  go 0

let of_labels ls =
  let n = List.fold_left (fun acc l -> acc + 1 + String.length l) 0 ls in
  check_length n;
  let b = Bytes.create n in
  let _ =
    List.fold_left
      (fun p l ->
        let len = String.length l in
        check_label len;
        Bytes.set b p (Char.chr len);
        String.iteri (fun i c -> Bytes.set b (p + 1 + i) (Char.lowercase_ascii c)) l;
        p + 1 + len)
      0 ls
  in
  Bytes.unsafe_to_string b

let append a b =
  check_length (String.length a + String.length b);
  a ^ b

let cons label t = append (of_labels [ label ]) t
let equal = String.equal
let compare = String.compare

let rec on_boundary name p start =
  if p < start then on_boundary name (p + 1 + Char.code name.[p]) start else p = start

let rec tail_equal name start suffix i =
  i >= String.length suffix
  || (name.[start + i] = suffix.[i] && tail_equal name start suffix (i + 1))

let is_suffix ~suffix name =
  let start = String.length name - String.length suffix in
  start >= 0 && on_boundary name 0 start && tail_equal name start suffix 0

let encoded_length s = String.length s + 1
let unsafe_of_string s = s
