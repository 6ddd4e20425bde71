type section = {
  sec_name : string;
  guard_name : string;
  va : int;
  bytes : int;
  perm : Xensim.Pagetable.perm;
}

type image = { sections : section list; entry_va : int; total_bytes : int; seed : int }

let page = 4096

(* Image sections live in [image_base, image_limit); the runtime heaps and
   I/O regions (Pvboot.Layout) sit elsewhere. *)
let image_base = 0x400000
let image_limit = 0xF000000

let round_up v = (v + page - 1) / page * page

(* Section and guard labels, built once per library. Every clone of an
   appliance links the same libraries, and each label lives as long as
   the clone's image and page table, so a storm of 10⁴ clones shares one
   copy of each instead of concatenating its own. *)
type labels = { text : string; data : string; text_guard : string; data_guard : string }

let labels : (string, labels) Hashtbl.t = Hashtbl.create 64

let guard name = "guard:" ^ name

let labels_of name =
  match Hashtbl.find_opt labels name with
  | Some l -> l
  | None ->
    let text = "text:" ^ name and data = "data:" ^ name in
    let l = { text; data; text_guard = guard text; data_guard = guard data } in
    Hashtbl.add labels name l;
    l

let link (plan : Specialize.plan) ~seed =
  let prng = Engine.Prng.create ~seed () in
  let app = "app:" ^ plan.Specialize.config.Config.app_name in
  let pieces =
    (app, guard app, plan.Specialize.config.Config.app_text_bytes, Xensim.Pagetable.Read_exec)
    :: List.concat_map
         (fun (l : Library_registry.lib) ->
           let text =
             match plan.Specialize.dce with
             | Specialize.Standard -> l.Library_registry.text_bytes
             | Specialize.Ocamlclean ->
               int_of_float
                 (float_of_int l.Library_registry.text_bytes
                 *. (1.0 -. l.Library_registry.unused_fraction))
           in
           let n = labels_of l.Library_registry.lib_name in
           [
             (n.text, n.text_guard, text, Xensim.Pagetable.Read_exec);
             (n.data, n.data_guard, l.Library_registry.data_bytes, Xensim.Pagetable.Read_write);
           ])
         plan.Specialize.libs
  in
  (* Random placement order, then sequential packing with random gaps:
     deterministic per seed, different across seeds, contiguous enough to
     leave the heap area untouched. *)
  let arr = Array.of_list pieces in
  Engine.Prng.shuffle prng arr;
  let cursor = ref (image_base + (page * Engine.Prng.int prng 256)) in
  let sections =
    Array.to_list arr
    |> List.map (fun (sec_name, guard_name, bytes, perm) ->
           let gap = page * (1 + Engine.Prng.int prng 15) in
           let va = !cursor + gap in
           cursor := va + round_up (max bytes 1);
           if !cursor > image_limit then failwith "Linker.link: image exceeds reserved range";
           { sec_name; guard_name; va; bytes = max bytes 1; perm })
  in
  let sections = List.sort (fun a b -> compare a.va b.va) sections in
  let entry_va =
    match List.find_opt (fun s -> s.perm = Xensim.Pagetable.Read_exec) sections with
    | Some s -> s.va
    | None -> image_base
  in
  let total_bytes = List.fold_left (fun acc s -> acc + s.bytes) 0 sections in
  { sections; entry_va; total_bytes; seed }

let install image pt =
  List.iter
    (fun s ->
      Xensim.Pagetable.add_region pt ~va:s.va ~len:(round_up s.bytes) ~perm:s.perm
        ~label:s.sec_name;
      (* Guard page after each section. *)
      Xensim.Pagetable.add_region pt ~va:(s.va + round_up s.bytes) ~len:page
        ~perm:Xensim.Pagetable.Read_only ~label:s.guard_name)
    image.sections

let layout_distance a b =
  let addr img =
    List.fold_left
      (fun acc s -> (s.sec_name, s.va) :: acc)
      [] img.sections
  in
  let ta = addr a in
  let differing =
    List.fold_left
      (fun n (name, va) ->
        match List.assoc_opt name (addr b) with
        | Some va' when va' = va -> n
        | _ -> n + 1)
      0 ta
  in
  if ta = [] then 0.0 else float_of_int differing /. float_of_int (List.length ta)
