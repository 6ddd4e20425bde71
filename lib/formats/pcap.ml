let linktype_ethernet = 1

type packet = { ts_sec : int; ts_usec : int; len : int; data : string }
type file = { snaplen : int; linktype : int; packets : packet list }

let magic_usec = 0xa1b2c3d4
let magic_nsec = 0xa1b23c4d
let version_major = 2
let version_minor = 4

let add_u16le b v =
  Buffer.add_char b (Char.chr (v land 0xff));
  Buffer.add_char b (Char.chr ((v lsr 8) land 0xff))

let add_u32le b v =
  add_u16le b (v land 0xffff);
  add_u16le b ((v lsr 16) land 0xffff)

let add_header ?(snaplen = 65535) b =
  add_u32le b magic_usec;
  add_u16le b version_major;
  add_u16le b version_minor;
  add_u32le b 0 (* thiszone: GMT *);
  add_u32le b 0 (* sigfigs *);
  add_u32le b snaplen;
  add_u32le b linktype_ethernet

let add_packet b ~ts_ns ?orig_len data =
  let orig_len = match orig_len with Some n -> n | None -> String.length data in
  add_u32le b (ts_ns / 1_000_000_000);
  add_u32le b (ts_ns mod 1_000_000_000 / 1000);
  add_u32le b (String.length data);
  add_u32le b orig_len;
  Buffer.add_string b data

let u32 ~le s off =
  let g i = Char.code s.[off + i] in
  if le then g 0 lor (g 1 lsl 8) lor (g 2 lsl 16) lor (g 3 lsl 24)
  else g 3 lor (g 2 lsl 8) lor (g 1 lsl 16) lor (g 0 lsl 24)

let u16 ~le s off =
  let g i = Char.code s.[off + i] in
  if le then g 0 lor (g 1 lsl 8) else g 1 lor (g 0 lsl 8)

let parse s =
  let n = String.length s in
  if n < 24 then Error "truncated: shorter than the 24-byte global header"
  else
    let magic_le = u32 ~le:true s 0 in
    let magic_be = u32 ~le:false s 0 in
    let le_nsec =
      if magic_le = magic_usec then Some (true, false)
      else if magic_le = magic_nsec then Some (true, true)
      else if magic_be = magic_usec then Some (false, false)
      else if magic_be = magic_nsec then Some (false, true)
      else None
    in
    match le_nsec with
    | None -> Error (Printf.sprintf "bad magic 0x%08x" magic_le)
    | Some (le, nsec) ->
        let major = u16 ~le s 4 and minor = u16 ~le s 6 in
        if major <> version_major then
          Error (Printf.sprintf "unsupported version %d.%d" major minor)
        else
          let snaplen = u32 ~le s 16 and linktype = u32 ~le s 20 in
          let rec records acc off =
            if off = n then Ok (List.rev acc)
            else if off + 16 > n then
              Error (Printf.sprintf "truncated record header at offset %d" off)
            else
              let ts_sec = u32 ~le s off in
              let frac = u32 ~le s (off + 4) in
              let incl = u32 ~le s (off + 8) in
              let orig = u32 ~le s (off + 12) in
              if incl > snaplen || incl > orig then
                Error
                  (Printf.sprintf "record at offset %d: incl_len %d > %s" off incl
                     (if incl > snaplen then "snaplen" else "orig_len"))
              else if off + 16 + incl > n then
                Error (Printf.sprintf "truncated record body at offset %d" off)
              else
                let data = String.sub s (off + 16) incl in
                let ts_usec = if nsec then frac / 1000 else frac in
                records
                  ({ ts_sec; ts_usec; len = orig; data } :: acc)
                  (off + 16 + incl)
          in
          Result.map
            (fun packets -> { snaplen; linktype; packets })
            (records [] 24)
