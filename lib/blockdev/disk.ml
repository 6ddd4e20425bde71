exception Out_of_range of string
exception Torn_write

type t = {
  sim : Engine.Sim.t;
  sectors : int;
  chunks : (int, Bytestruct.t) Hashtbl.t;  (* chunk index -> contents; see [iter_chunks] *)
  mutable busy_until : int;
  mutable reads : int;
  mutable writes : int;
  mutable torn : int option;  (* sectors to persist before failing *)
}

(* Calibration: ~55 µs access latency and ~1.75 GB/s internal bandwidth
   reproduce Figure 9's range — ~20 MiB/s at 1 KiB requests rising to
   ~1.6 GiB/s at multi-megabyte requests. *)
let sector_size = 512
let access_ns = 55_000
let bandwidth_bytes_per_sec = 1_750_000_000

let create sim ~sectors () =
  if sectors <= 0 then invalid_arg "Disk.create: need at least one sector";
  {
    sim;
    sectors;
    chunks = Hashtbl.create 16;
    busy_until = 0;
    reads = 0;
    writes = 0;
    torn = None;
  }

let sector_bytes _ = sector_size
let sectors t = t.sectors
let reads_issued t = t.reads
let writes_issued t = t.writes

let inject_torn_write t ~sectors = t.torn <- Some sectors

let service t ~bytes =
  let now = Engine.Sim.now t.sim in
  let transfer = int_of_float (float_of_int bytes /. float_of_int bandwidth_bytes_per_sec *. 1e9) in
  let start = max now t.busy_until in
  t.busy_until <- start + access_ns + transfer;
  t.busy_until - now

let check t ~sector ~count =
  if sector < 0 || count < 0 || sector + count > t.sectors then
    raise (Out_of_range (Printf.sprintf "sectors [%d,%d) of %d" sector (sector + count) t.sectors))

(* Contents live in fixed-size chunks, allocated on the first write that
   touches them, so a device costs memory only for what was written; an
   absent chunk reads as zeros. [iter_chunks] splits the byte range
   [pos, pos + len) at chunk boundaries and calls [f chunk_index
   offset_in_chunk offset_in_range n] once per piece. *)
let chunk_bytes = 65536

let iter_chunks ~pos ~len f =
  let rec go off =
    if off < len then begin
      let p = pos + off in
      let within = p mod chunk_bytes in
      let n = min (chunk_bytes - within) (len - off) in
      f (p / chunk_bytes) within off n;
      go (off + n)
    end
  in
  go 0

let load t ~sector ~count =
  let bytes = count * sector_size in
  let out = Bytestruct.create bytes in
  iter_chunks ~pos:(sector * sector_size) ~len:bytes (fun i within off n ->
      match Hashtbl.find_opt t.chunks i with
      | Some chunk -> Bytestruct.blit chunk within out off n
      | None -> ());
  out

let store t ~sector data ~len =
  iter_chunks ~pos:(sector * sector_size) ~len (fun i within off n ->
      let chunk =
        match Hashtbl.find_opt t.chunks i with
        | Some chunk -> chunk
        | None ->
          let chunk = Bytestruct.create chunk_bytes in
          Hashtbl.add t.chunks i chunk;
          chunk
      in
      Bytestruct.blit data off chunk within n)

let peek t ~sector ~count =
  check t ~sector ~count;
  load t ~sector ~count

let read t ~sector ~count =
  check t ~sector ~count;
  t.reads <- t.reads + 1;
  let bytes = count * sector_size in
  let delay = service t ~bytes in
  Mthread.Promise.bind (Mthread.Promise.sleep t.sim delay) (fun () ->
      Mthread.Promise.return (load t ~sector ~count))

let write t ~sector data =
  let len = Bytestruct.length data in
  if len mod sector_size <> 0 then invalid_arg "Disk.write: partial sector";
  let count = len / sector_size in
  check t ~sector ~count;
  t.writes <- t.writes + 1;
  let delay = service t ~bytes:len in
  Mthread.Promise.bind (Mthread.Promise.sleep t.sim delay) (fun () ->
      match t.torn with
      | Some keep when keep < count ->
        t.torn <- None;
        store t ~sector data ~len:(keep * sector_size);
        Mthread.Promise.fail Torn_write
      | _ ->
        t.torn <- None;
        store t ~sector data ~len;
        Mthread.Promise.return ())
