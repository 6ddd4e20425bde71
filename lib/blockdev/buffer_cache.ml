(* LRU over page-sized cache lines, keyed by page index. Resident
   entries sit on an intrusive doubly linked recency list, least
   recently used first, so a touch, an insert, an eviction and an
   invalidation are each O(1). A buffered Figure 9 run inserts 8 192 to
   16 384 pages into a full 4 096-page cache; a scan per insert for the
   oldest entry was most of that figure's host time. The list evicts
   exactly the entry such a scan would: every touch and insert moves an
   entry to the back, so the front is always the least recently used. *)

let page_sectors disk = max 1 (4096 / Disk.sector_bytes disk)

type entry = { page : int; mutable prev : entry; mutable next : entry }

type t = {
  sim : Engine.Sim.t;
  disk : Disk.t;
  cache_pages : int;
  entries : (int, entry) Hashtbl.t;
  lru : entry;  (* sentinel: [lru.next] is the least recently used entry *)
  mutable hits : int;
  mutable misses : int;
  mutable copy_busy_until : int;
}

let copy_bandwidth_bytes_per_sec = 320_000_000

let create sim ?(cache_pages = 4096) disk =
  let rec lru = { page = -1; prev = lru; next = lru } in
  {
    sim;
    disk;
    cache_pages;
    entries = Hashtbl.create (2 * cache_pages);
    lru;
    hits = 0;
    misses = 0;
    copy_busy_until = 0;
  }

let unlink e =
  e.prev.next <- e.next;
  e.next.prev <- e.prev

let push_back t e =
  e.prev <- t.lru.prev;
  e.next <- t.lru;
  t.lru.prev.next <- e;
  t.lru.prev <- e

let touch t page =
  match Hashtbl.find_opt t.entries page with
  | Some e ->
    unlink e;
    push_back t e;
    true
  | None -> false

let evict_if_full t =
  let oldest = t.lru.next in
  if Hashtbl.length t.entries >= t.cache_pages && oldest != t.lru then begin
    unlink oldest;
    Hashtbl.remove t.entries oldest.page
  end

let insert t page =
  if not (Hashtbl.mem t.entries page) then begin
    evict_if_full t;
    let rec e = { page; prev = e; next = e } in
    push_back t e;
    Hashtbl.replace t.entries page e
  end

let invalidate t page =
  match Hashtbl.find_opt t.entries page with
  | Some e ->
    unlink e;
    Hashtbl.remove t.entries page
  | None -> ()

(* The kernel/userspace copy serialises through one path; its bandwidth is
   the buffered plateau. *)
let copy_delay t ~bytes =
  let now = Engine.Sim.now t.sim in
  let cost = int_of_float (float_of_int bytes /. float_of_int copy_bandwidth_bytes_per_sec *. 1e9) in
  let start = max now t.copy_busy_until in
  t.copy_busy_until <- start + cost;
  t.copy_busy_until - now

let read t ~sector ~count =
  let open Mthread.Promise in
  let ps = page_sectors t.disk in
  let first_page = sector / ps in
  let last_page = (sector + count - 1) / ps in
  let rec pages p acc = if p > last_page then List.rev acc else pages (p + 1) (p :: acc) in
  let wanted = pages first_page [] in
  let missing = List.filter (fun p -> not (touch t p)) wanted in
  t.hits <- t.hits + (List.length wanted - List.length missing);
  t.misses <- t.misses + List.length missing;
  let fetch =
    (* Coalesce the missing pages into one device request per contiguous
       run; for random whole-block reads this is a single run. *)
    let rec runs = function
      | [] -> []
      | p :: rest ->
        let rec extend last = function
          | q :: more when q = last + 1 -> extend q more
          | tail -> (last, tail)
        in
        let last, tail = extend p rest in
        (p, last) :: runs tail
    in
    let fetch_run (a, b) =
      bind (Disk.read t.disk ~sector:(a * ps) ~count:(min ((b - a + 1) * ps) (Disk.sectors t.disk - (a * ps))))
        (fun _data ->
          let rec mark p = if p <= b then begin insert t p; mark (p + 1) end in
          mark a;
          return ())
    in
    join (List.map fetch_run (runs missing))
  in
  bind fetch (fun () ->
      (* Hit or miss, the data is now resident; copy it to the caller. *)
      let bytes = count * Disk.sector_bytes t.disk in
      bind (sleep t.sim (copy_delay t ~bytes)) (fun () ->
          (* Resident data is served from the cache; contents still come
             from the backing store so reads stay faithful, but without
             re-charging device time. *)
          return (Disk.peek t.disk ~sector ~count)))

let write t ~sector data =
  let open Mthread.Promise in
  let ps = page_sectors t.disk in
  let count = Bytestruct.length data / Disk.sector_bytes t.disk in
  let first_page = sector / ps and last_page = (sector + max 1 count - 1) / ps in
  for p = first_page to last_page do
    invalidate t p
  done;
  bind (sleep t.sim (copy_delay t ~bytes:(Bytestruct.length data))) (fun () ->
      Disk.write t.disk ~sector data)

let hits t = t.hits
let misses t = t.misses
let resident_pages t = Hashtbl.length t.entries
let resident t ~page = Hashtbl.mem t.entries page
