(* LRU over page-sized cache lines, keyed by page index. The recency list
   is a simple doubly-ended structure via generation counters: each access
   stamps the entry; eviction scans for the oldest. Cache sizes in the
   benchmarks are a few thousand pages, so the scan is acceptable and the
   code stays obvious. *)

let page_sectors disk = max 1 (4096 / Disk.sector_bytes disk)

type entry = { mutable stamp : int }

type t = {
  sim : Engine.Sim.t;
  disk : Disk.t;
  cache_pages : int;
  entries : (int, entry) Hashtbl.t;
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
  mutable copy_busy_until : int;
}

let copy_bandwidth_bytes_per_sec = 320_000_000

let create sim ?(cache_pages = 4096) disk =
  {
    sim;
    disk;
    cache_pages;
    entries = Hashtbl.create (2 * cache_pages);
    clock = 0;
    hits = 0;
    misses = 0;
    copy_busy_until = 0;
  }

let touch t page =
  t.clock <- t.clock + 1;
  match Hashtbl.find_opt t.entries page with
  | Some e ->
    e.stamp <- t.clock;
    true
  | None -> false

let evict_if_full t =
  if Hashtbl.length t.entries >= t.cache_pages then begin
    let victim = ref (-1) and oldest = ref max_int in
    Hashtbl.iter
      (fun page e ->
        if e.stamp < !oldest then begin
          oldest := e.stamp;
          victim := page
        end)
      t.entries;
    if !victim >= 0 then Hashtbl.remove t.entries !victim
  end

let insert t page =
  if not (Hashtbl.mem t.entries page) then begin
    evict_if_full t;
    t.clock <- t.clock + 1;
    Hashtbl.replace t.entries page { stamp = t.clock }
  end

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
    Hashtbl.remove t.entries p
  done;
  bind (sleep t.sim (copy_delay t ~bytes:(Bytestruct.length data))) (fun () ->
      Disk.write t.disk ~sector data)

let hits t = t.hits
let misses t = t.misses
let resident_pages t = Hashtbl.length t.entries
