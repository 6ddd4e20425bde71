(* Figure 9: random block read throughput vs. request size — Mirage direct
   I/O, Linux PV direct I/O, and Linux PV through the buffer cache. *)

module P = Mthread.Promise

let device_sectors = 1 lsl 22 (* 2 GiB at 512 B *)

let throughput_direct ~platform ~block_kib =
  let w = Util.make_world () in
  let dom = Util.domain w ~platform ~name:"io" () in
  let disk = Blockdev.Disk.create w.Util.sim ~sectors:device_sectors () in
  let blkif = Devices.Blkif.connect w.Util.hv ~dom ~backend_dom:w.Util.dom0 ~disk () in
  let sectors_per_block = block_kib * 1024 / 512 in
  let spread = device_sectors / sectors_per_block in
  let prng = Engine.Prng.create ~seed:9 () in
  let reads = max 16 (min 256 (64 * 1024 / block_kib)) in
  let t0 = Engine.Sim.now w.Util.sim in
  let rec go i bytes =
    if i = 0 then P.return bytes
    else
      let sector = Engine.Prng.int prng spread * sectors_per_block in
      P.bind (Devices.Blkif.read blkif ~sector ~count:sectors_per_block) (fun data ->
          go (i - 1) (bytes + Bytestruct.length data))
  in
  let bytes = Util.run w (go reads 0) in
  float_of_int bytes /. Engine.Sim.to_sec (Engine.Sim.now w.Util.sim - t0) /. 1048576.0

let throughput_buffered ~block_kib =
  let w = Util.make_world () in
  let disk = Blockdev.Disk.create w.Util.sim ~sectors:device_sectors () in
  let bc = Blockdev.Buffer_cache.create w.Util.sim disk in
  let sectors_per_block = block_kib * 1024 / 512 in
  let spread = device_sectors / sectors_per_block in
  let prng = Engine.Prng.create ~seed:9 () in
  let reads = max 16 (min 256 (64 * 1024 / block_kib)) in
  let t0 = Engine.Sim.now w.Util.sim in
  let rec go i bytes =
    if i = 0 then P.return bytes
    else
      let sector = Engine.Prng.int prng spread * sectors_per_block in
      P.bind (Blockdev.Buffer_cache.read bc ~sector ~count:sectors_per_block) (fun data ->
          go (i - 1) (bytes + Bytestruct.length data))
  in
  let bytes = Util.run w (go reads 0) in
  float_of_int bytes /. Engine.Sim.to_sec (Engine.Sim.now w.Util.sim - t0) /. 1048576.0

let run () =
  Util.header "Figure 9: random block read throughput (MiB/s)";
  Printf.printf "  %-10s %-14s %-18s %-18s\n" "KiB" "Mirage" "Linux PV direct" "Linux PV buffered";
  List.iter
    (fun block_kib ->
      let mirage = throughput_direct ~platform:Platform.xen_extent ~block_kib in
      let linux = throughput_direct ~platform:Platform.linux_pv ~block_kib in
      let buffered = throughput_buffered ~block_kib in
      List.iter
        (fun (label, v) ->
          Util.emit ~figure:"fig9"
            ~metric:(Printf.sprintf "read/%s/%dKiB" label block_kib)
            ~unit_:"MiB/s" v)
        [ ("Mirage", mirage); ("Linux PV direct", linux); ("Linux PV buffered", buffered) ];
      Printf.printf "  %-10d %-14.0f %-18.0f %-18.0f\n" block_kib mirage linux buffered)
    [ 1; 2; 4; 8; 16; 32; 64; 128; 256; 512; 1024; 2048; 4096 ];
  Printf.printf
    "  (paper: direct paths track the device to ~1.6 GiB/s; buffered plateaus ~300 MiB/s)\n"
