type lib = {
  lib_name : string;
  subsystem : string;
  loc : int;
  text_bytes : int;
  data_bytes : int;
  unused_fraction : float;
  deps : string list;
}

exception Unknown_library of string

let kb n = n * 1024

(* Sizes are calibrated so the four appliance images of Table 2 come out
   at the paper's figures (DNS 449->184 kB, web 673->172 kB, OpenFlow
   switch 393->164 kB, controller 392->168 kB). [unused_fraction] models
   what ocamlclean's dataflow pass strips from each library when linked
   into a typical appliance. *)
let registry =
  [
    (* Core *)
    { lib_name = "runtime"; subsystem = "Core"; loc = 44_000; text_bytes = kb 186; data_bytes = kb 10; unused_fraction = 0.77; deps = [] };
    { lib_name = "pvboot"; subsystem = "Core"; loc = 2_900; text_bytes = kb 16; data_bytes = kb 1; unused_fraction = 0.3; deps = [] };
    { lib_name = "lwt"; subsystem = "Core"; loc = 6_400; text_bytes = kb 24; data_bytes = kb 1; unused_fraction = 0.65; deps = [ "runtime" ] };
    { lib_name = "cstruct"; subsystem = "Core"; loc = 1_800; text_bytes = kb 12; data_bytes = kb 1; unused_fraction = 0.5; deps = [ "runtime" ] };
    { lib_name = "regexp"; subsystem = "Core"; loc = 2_400; text_bytes = kb 20; data_bytes = kb 1; unused_fraction = 0.9; deps = [ "runtime" ] };
    { lib_name = "utf8"; subsystem = "Core"; loc = 1_100; text_bytes = kb 12; data_bytes = kb 2; unused_fraction = 0.9; deps = [ "runtime" ] };
    { lib_name = "cryptokit"; subsystem = "Core"; loc = 7_800; text_bytes = kb 96; data_bytes = kb 6; unused_fraction = 0.98; deps = [ "runtime" ] };
    (* Xen device drivers *)
    { lib_name = "ring"; subsystem = "Core"; loc = 900; text_bytes = kb 9; data_bytes = kb 1; unused_fraction = 0.3; deps = [ "pvboot"; "cstruct" ] };
    { lib_name = "netif"; subsystem = "Network"; loc = 1_600; text_bytes = kb 11; data_bytes = kb 1; unused_fraction = 0.35; deps = [ "ring"; "lwt" ] };
    { lib_name = "blkif"; subsystem = "Storage"; loc = 1_400; text_bytes = kb 11; data_bytes = kb 1; unused_fraction = 0.7; deps = [ "ring"; "lwt" ] };
    (* Network *)
    { lib_name = "ethernet"; subsystem = "Network"; loc = 700; text_bytes = kb 7; data_bytes = kb 1; unused_fraction = 0.35; deps = [ "netif" ] };
    { lib_name = "arp"; subsystem = "Network"; loc = 800; text_bytes = kb 5; data_bytes = kb 1; unused_fraction = 0.35; deps = [ "ethernet" ] };
    { lib_name = "ipv4"; subsystem = "Network"; loc = 1_900; text_bytes = kb 13; data_bytes = kb 1; unused_fraction = 0.45; deps = [ "ethernet"; "arp" ] };
    { lib_name = "icmp"; subsystem = "Network"; loc = 600; text_bytes = kb 5; data_bytes = kb 1; unused_fraction = 0.5; deps = [ "ipv4" ] };
    { lib_name = "udp"; subsystem = "Network"; loc = 900; text_bytes = kb 7; data_bytes = kb 1; unused_fraction = 0.4; deps = [ "ipv4" ] };
    { lib_name = "tcp"; subsystem = "Network"; loc = 5_400; text_bytes = kb 45; data_bytes = kb 1; unused_fraction = 0.82; deps = [ "ipv4" ] };
    { lib_name = "dhcp"; subsystem = "Network"; loc = 1_300; text_bytes = kb 11; data_bytes = kb 1; unused_fraction = 0.65; deps = [ "udp" ] };
    { lib_name = "openflow"; subsystem = "Network"; loc = 5_900; text_bytes = kb 32; data_bytes = kb 2; unused_fraction = 0.08; deps = [ "tcp" ] };
    (* Storage *)
    { lib_name = "kv"; subsystem = "Storage"; loc = 1_000; text_bytes = kb 7; data_bytes = kb 1; unused_fraction = 0.5; deps = [ "lwt" ] };
    { lib_name = "fat32"; subsystem = "Storage"; loc = 2_800; text_bytes = kb 20; data_bytes = kb 1; unused_fraction = 0.9; deps = [ "blkif" ] };
    { lib_name = "btree"; subsystem = "Storage"; loc = 2_400; text_bytes = kb 16; data_bytes = kb 1; unused_fraction = 0.8; deps = [ "blkif" ] };
    { lib_name = "memcache"; subsystem = "Storage"; loc = 1_200; text_bytes = kb 9; data_bytes = kb 1; unused_fraction = 0.6; deps = [ "tcp"; "kv" ] };
    (* Application *)
    { lib_name = "dns"; subsystem = "Application"; loc = 4_100; text_bytes = kb 71; data_bytes = kb 2; unused_fraction = 0.53; deps = [ "udp"; "kv"; "regexp"; "utf8" ] };
    { lib_name = "ssh"; subsystem = "Application"; loc = 6_300; text_bytes = kb 48; data_bytes = kb 2; unused_fraction = 0.8; deps = [ "tcp"; "cryptokit" ] };
    { lib_name = "http"; subsystem = "Application"; loc = 3_800; text_bytes = kb 80; data_bytes = kb 2; unused_fraction = 0.93; deps = [ "tcp"; "regexp"; "utf8" ] };
    { lib_name = "xmpp"; subsystem = "Application"; loc = 3_100; text_bytes = kb 24; data_bytes = kb 1; unused_fraction = 0.8; deps = [ "tcp"; "xml" ] };
    { lib_name = "smtp"; subsystem = "Application"; loc = 1_700; text_bytes = kb 13; data_bytes = kb 1; unused_fraction = 0.8; deps = [ "tcp" ] };
    (* Formats *)
    { lib_name = "json"; subsystem = "Formats"; loc = 1_500; text_bytes = kb 14; data_bytes = kb 1; unused_fraction = 0.9; deps = [ "utf8" ] };
    { lib_name = "xml"; subsystem = "Formats"; loc = 2_300; text_bytes = kb 18; data_bytes = kb 1; unused_fraction = 0.92; deps = [ "utf8" ] };
    { lib_name = "css"; subsystem = "Formats"; loc = 1_400; text_bytes = kb 12; data_bytes = kb 1; unused_fraction = 0.92; deps = [ "utf8" ] };
    { lib_name = "sexp"; subsystem = "Formats"; loc = 900; text_bytes = kb 8; data_bytes = kb 1; unused_fraction = 0.7; deps = [ "runtime" ] };
  ]

(* Host shims linked instead of unikernel facilities on the POSIX
   developer targets (§5.4): thin bindings over kernel services, not
   Mirage libraries — kept out of [all]/[by_subsystem] so Table 1 stays
   the paper's table. They enter a plan only through a target's
   dependency rewrite in [Specialize]. *)
let host_registry =
  [
    { lib_name = "hostsock"; subsystem = "Host"; loc = 600; text_bytes = kb 5; data_bytes = kb 1; unused_fraction = 0.3; deps = [ "runtime"; "lwt" ] };
    { lib_name = "tuntap"; subsystem = "Host"; loc = 500; text_bytes = kb 4; data_bytes = kb 1; unused_fraction = 0.3; deps = [ "runtime"; "lwt" ] };
    { lib_name = "hostfile"; subsystem = "Host"; loc = 400; text_bytes = kb 4; data_bytes = kb 1; unused_fraction = 0.3; deps = [ "runtime"; "lwt" ] };
  ]

let table = Hashtbl.create 64

let () = List.iter (fun l -> Hashtbl.replace table l.lib_name l) (registry @ host_registry)

let all () = registry

let find name =
  match Hashtbl.find_opt table name with
  | Some l -> l
  | None -> raise (Unknown_library name)

let mem name = Hashtbl.mem table name

let dependency_closure ?rewrite roots =
  let rewrite = match rewrite with Some f -> f | None -> fun n -> Some n in
  let seen = Hashtbl.create 32 in
  let order = ref [] in
  let rec visit name =
    match rewrite name with
    | None -> ()
    | Some name ->
      if not (Hashtbl.mem seen name) then begin
        Hashtbl.replace seen name ();
        let l = find name in
        List.iter visit l.deps;
        order := l :: !order
      end
  in
  List.iter visit roots;
  List.rev !order

let by_subsystem () =
  let subsystems = [ "Core"; "Network"; "Storage"; "Application"; "Formats" ] in
  List.map
    (fun s ->
      (s, List.filter_map (fun l -> if l.subsystem = s then Some l.lib_name else None) registry))
    subsystems
