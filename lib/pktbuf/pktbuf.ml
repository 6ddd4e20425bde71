exception Double_free

type pool = {
  name : string;
  buf_bytes : int;
  free : t Queue.t;
  mutable total : int;  (* buffers ever created *)
}

and t = {
  pool : pool;
  storage : Bytestruct.t;
  mutable refs : int;  (* 0 = on the freelist *)
}

let c_alloc = Trace.counter "pktbuf.alloc"
let c_recycle = Trace.counter "pktbuf.recycle"
let c_grow = Trace.counter "pktbuf.grow"

let create_pool ?(buf_bytes = 2048) ~name () =
  if buf_bytes <= 0 then invalid_arg "Pktbuf.create_pool";
  { name; buf_bytes; free = Queue.create (); total = 0 }

let buf_bytes p = p.buf_bytes
let free_buffers p = Queue.length p.free
let outstanding p = p.total - Queue.length p.free
let bytes_reserved p = p.total * p.buf_bytes

(* Growth is the only allocating path, one buffer per empty-freelist
   alloc: the pool's size is its high-water mark of buffers in flight. *)
let grow p =
  Trace.incr c_grow;
  p.total <- p.total + 1;
  { pool = p; storage = Bytestruct.create p.buf_bytes; refs = 0 }

let alloc p =
  let pb = if Queue.is_empty p.free then grow p else Queue.take p.free in
  pb.refs <- 1;
  Trace.incr c_alloc;
  pb

let retain pb =
  if pb.refs <= 0 then raise Double_free;
  pb.refs <- pb.refs + 1

let release pb =
  if pb.refs <= 0 then raise Double_free;
  pb.refs <- pb.refs - 1;
  if pb.refs = 0 then begin
    Trace.incr c_recycle;
    Queue.add pb pb.pool.free
  end

let refs pb = pb.refs
let storage pb = pb.storage
let view pb ~off ~len = Bytestruct.sub pb.storage off len

let ambient : t option ref = ref None

let with_current pb f =
  let saved = !ambient in
  ambient := Some pb;
  match f () with
  | v ->
    ambient := saved;
    v
  | exception e ->
    ambient := saved;
    raise e

let current () = !ambient

let retain_current () =
  match !ambient with
  | None -> None
  | Some pb ->
    retain pb;
    Some pb
