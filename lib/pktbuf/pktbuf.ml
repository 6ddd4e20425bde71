exception Double_free

(* A pool is accounting only: what its owner has out and the most it
   ever had out at once. Storage lives in one freelist shared by every
   pool, so a buffer one device releases is the next one any device
   allocates, and idle devices hold nothing. *)
type pool = { mutable outstanding : int; mutable high_water : int }

and t = {
  mutable pool : pool;  (* the pool that allocated it last *)
  storage : Bytestruct.t;
  mutable refs : int;  (* 0 = on the freelist *)
}

let buf_bytes = 2048
let free : t Stack.t = Stack.create ()
let create_pool () = { outstanding = 0; high_water = 0 }
let free_buffers p = p.high_water - p.outstanding
let outstanding p = p.outstanding
let bytes_reserved p = p.high_water * buf_bytes

(* Growth is the only allocating path, one buffer per alloc that finds
   the shared freelist empty. *)
let grow p = { pool = p; storage = Bytestruct.create buf_bytes; refs = 0 }

let alloc p =
  let pb = if Stack.is_empty free then grow p else Stack.pop free in
  pb.pool <- p;
  pb.refs <- 1;
  p.outstanding <- p.outstanding + 1;
  if p.outstanding > p.high_water then p.high_water <- p.outstanding;
  pb

let retain pb =
  if pb.refs <= 0 then raise Double_free;
  pb.refs <- pb.refs + 1

let release pb =
  if pb.refs <= 0 then raise Double_free;
  pb.refs <- pb.refs - 1;
  if pb.refs = 0 then begin
    pb.pool.outstanding <- pb.pool.outstanding - 1;
    Stack.push pb free
  end

let refs pb = pb.refs
let storage pb = pb.storage
let view pb ~off ~len = Bytestruct.sub pb.storage off len

let ambient : t option ref = ref None

let with_current_arg pb f x =
  let saved = !ambient in
  ambient := Some pb;
  match f x with
  | v ->
    ambient := saved;
    v
  | exception e ->
    ambient := saved;
    raise e

let with_current pb f = with_current_arg pb f ()

let current () = !ambient

let retain_current () =
  match !ambient with
  | None -> None
  | Some pb ->
    retain pb;
    Some pb
