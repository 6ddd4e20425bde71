type t = {
  mutable lines : string list;  (* newest first *)
  buf : Buffer.t;
}

let create () = { lines = []; buf = Buffer.create 80 }

let write t s =
  String.iter
    (fun c ->
      if c = '\n' then begin
        t.lines <- Buffer.contents t.buf :: t.lines;
        Buffer.clear t.buf
      end
      else Buffer.add_char t.buf c)
    s

let log t = List.rev t.lines
let partial t = Buffer.contents t.buf
