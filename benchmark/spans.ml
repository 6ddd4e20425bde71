(* Spans recorded by the benchmark around its own calls into each layer
   (connect, request, close, query, boot, first_response), in virtual
   time. Only the traced repetition records them; they are kept in
   memory and written as JSON lines when the repetition ends. A span's
   self time is its duration minus the part of it its children cover. *)

type span = {
  id : int;
  name : string;
  parent : int;  (* -1 for a root span *)
  req : int;  (* request id shared by the spans of one request *)
  start_ns : int;
  mutable end_ns : int;  (* -1 while open *)
}

(* The span names the per-layer table reports, in table order. *)
let reported = [ "connect"; "request"; "close"; "query"; "boot"; "first_response" ]

let on = ref false

(* Only the first [capacity] spans are kept, which bounds the memory and
   the JSONL of a long run. *)
let capacity = 65536

let table : (int, span) Hashtbl.t = Hashtbl.create 1024

(* Returns -1 (a no-op id for [finish]) unless recording is on. *)
let start ?(parent = -1) ~req ~now name =
  if (not !on) || Hashtbl.length table >= capacity then -1
  else begin
    let id = Hashtbl.length table in
    Hashtbl.replace table id { id; name; parent; req; start_ns = now; end_ns = -1 };
    id
  end

let finish id ~now =
  if id >= 0 then match Hashtbl.find_opt table id with Some s -> s.end_ns <- now | None -> ()

let closed () =
  Hashtbl.fold (fun _ s acc -> if s.end_ns >= 0 then s :: acc else acc) table []
  |> List.sort (fun a b -> compare a.id b.id)

(* Self time of every closed span: duration minus the union of its
   closed children's intervals, clipped to the parent. *)
let self_times spans =
  let children = Hashtbl.create 1024 in
  List.iter (fun s -> if s.parent >= 0 then Hashtbl.add children s.parent s) spans;
  List.map
    (fun s ->
      let kids =
        Hashtbl.find_all children s.id
        |> List.map (fun c -> (max s.start_ns c.start_ns, min s.end_ns c.end_ns))
        |> List.filter (fun (a, b) -> b > a)
        |> List.sort compare
      in
      let covered, _ =
        List.fold_left
          (fun (acc, reach) (a, b) ->
            let a = max a reach in
            if b > a then (acc + (b - a), b) else (acc, reach))
          (0, s.start_ns) kids
      in
      (s, s.end_ns - s.start_ns - covered))
    spans

(* [span.<name>.self_p50_ms] and [..self_p99_ms] for every reported
   name (0 when the workload records no such span). *)
let metrics () =
  let selfs = self_times (closed ()) in
  List.concat_map
    (fun name ->
      let xs =
        List.filter_map (fun (s, v) -> if s.name = name then Some v else None) selfs
        |> Array.of_list
      in
      Array.sort compare xs;
      let ms p = float_of_int (Stats.nearest_rank xs p) /. 1e6 in
      [
        (Printf.sprintf "span.%s.self_p50_ms" name, ms 50.);
        (Printf.sprintf "span.%s.self_p99_ms" name, ms 99.);
      ])
    reported

let write_jsonl file =
  let oc = open_out file in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":\"%s\",\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d,\"req\":%d}\n" s.id
        s.name s.start_ns s.end_ns s.parent s.req)
    (closed ());
  close_out oc
