(* Ring slot layout (32 bytes, little-endian):
     request:  op u8@0 (0 read, 1 write), id u16@2, sector u64@8,
               count u16@16, gref u32@20
     response: status u8@0 (0 ok, 1 error), id u16@2 *)

let slot_bytes = 32
let backend_per_request_ns = 2_000

type pending = {
  gref : Xensim.Gnttab.grant_ref;
  buffer : Bytestruct.t;
  waker : (Bytestruct.t, exn) result Mthread.Promise.u;
  span : Trace.span;  (* request submit -> response *)
}

type t = {
  hv : Xensim.Hypervisor.t;
  dom : Xensim.Domain.t;
  backend_dom : Xensim.Domain.t;
  disk : Blockdev.Disk.t;
  front : Xensim.Ring.Front.t;
  back : Xensim.Ring.Back.t;
  port_front : Xensim.Evtchn.port;
  port_back : Xensim.Evtchn.port;
  pending : (int, pending) Hashtbl.t;
  ring_space : Mthread.Msem.t;
  mutable next_id : int;
  mutable requests : int;
}

let gnttab t = t.hv.Xensim.Hypervisor.gnttab
let evtchn t = t.hv.Xensim.Hypervisor.evtchn

let backend_handle t () =
  let work = ref [] in
  ignore
    (Xensim.Ring.Back.consume_requests t.back (fun slot ->
         let op = Bytestruct.get_uint8 slot 0 in
         let id = Bytestruct.LE.get_uint16 slot 2 in
         let sector = Int64.to_int (Bytestruct.LE.get_uint64 slot 8) in
         let count = Bytestruct.LE.get_uint16 slot 16 in
         let gref = Bytestruct.LE.get_uint32_int slot 20 in
         work := (op, id, sector, count, gref) :: !work));
  let respond id status =
    let rsp = Xensim.Ring.Back.next_response t.back in
    Bytestruct.set_uint8 rsp 0 status;
    Bytestruct.LE.set_uint16 rsp 2 id;
    if Xensim.Ring.Back.push_responses_and_check_notify t.back then
      Xensim.Evtchn.notify (evtchn t) t.port_back
  in
  List.iter
    (fun (op, id, sector, count, gref) ->
      Xensim.Domain.book t.backend_dom ~cost:backend_per_request_ns;
      Mthread.Promise.async (fun () ->
          let open Mthread.Promise in
          if op = 0 then
            catch
              (fun () ->
                bind (Blockdev.Disk.read t.disk ~sector ~count) (fun data ->
                    Xensim.Gnttab.copy_to (gnttab t) ~by:t.backend_dom.Xensim.Domain.id gref
                      ~src:data;
                    respond id 0;
                    return ()))
              (fun _ ->
                respond id 1;
                return ())
          else
            catch
              (fun () ->
                let data = Xensim.Gnttab.map (gnttab t) ~by:t.backend_dom.Xensim.Domain.id gref in
                bind (Blockdev.Disk.write t.disk ~sector data) (fun () ->
                    Xensim.Gnttab.unmap (gnttab t) ~by:t.backend_dom.Xensim.Domain.id gref;
                    respond id 0;
                    return ()))
              (fun _ ->
                Xensim.Gnttab.unmap (gnttab t) ~by:t.backend_dom.Xensim.Domain.id gref;
                respond id 1;
                return ())))
    (List.rev !work)

exception Block_error

let frontend_handle t () =
  ignore
    (Xensim.Ring.Front.consume_responses t.front (fun slot ->
         let status = Bytestruct.get_uint8 slot 0 in
         let id = Bytestruct.LE.get_uint16 slot 2 in
         match Hashtbl.find_opt t.pending id with
         | None -> ()
         | Some p ->
           Hashtbl.remove t.pending id;
           Xensim.Gnttab.end_access (gnttab t) p.gref;
           Trace.finish p.span;
           Mthread.Msem.release t.ring_space;
           if status = 0 then Mthread.Promise.wakeup p.waker (Ok p.buffer)
           else Mthread.Promise.wakeup p.waker (Error Block_error)))

let connect hv ~dom ~backend_dom ~disk () =
  let page = Bytestruct.create 4096 in
  let sring = Xensim.Ring.Sring.init page ~slot_bytes in
  let front = Xensim.Ring.Front.init sring in
  let back = Xensim.Ring.Back.init (Xensim.Ring.Sring.attach page ~slot_bytes) in
  let ev = hv.Xensim.Hypervisor.evtchn in
  let port_back = Xensim.Evtchn.alloc_unbound ev ~owner:backend_dom.Xensim.Domain.id in
  let port_front =
    Xensim.Evtchn.bind_interdomain ev ~local:dom.Xensim.Domain.id ~remote_port:port_back
  in
  let t =
    {
      hv;
      dom;
      backend_dom;
      disk;
      front;
      back;
      port_front;
      port_back;
      pending = Hashtbl.create 64;
      ring_space = Mthread.Msem.create 64;
      next_id = 0;
      requests = 0;
    }
  in
  Xensim.Evtchn.set_handler ev port_back (fun () -> backend_handle t ());
  Xensim.Evtchn.set_handler ev port_front (fun () -> frontend_handle t ());
  if Trace.Metrics.enabled () then begin
    let id = dom.Xensim.Domain.id in
    Trace.Metrics.register_read ~dom:id ~kind:Trace.Metrics.Counter "blkif_requests" (fun () ->
        t.requests);
    Trace.Metrics.register_read ~dom:id ~kind:Trace.Metrics.Gauge "blkif_inflight" (fun () ->
        Hashtbl.length t.pending)
  end;
  t

let sector_bytes t = Blockdev.Disk.sector_bytes t.disk
let sectors t = Blockdev.Disk.sectors t.disk
let requests_issued t = t.requests

let submit t ~op ~sector ~count ~buffer =
  let open Mthread.Promise in
  bind (Mthread.Msem.acquire t.ring_space) (fun () ->
      (* The permit is returned by [frontend_handle] when the response
         frees the ring slot. *)
      let writable = op = `Read in
      let gref =
        Xensim.Gnttab.grant_access (gnttab t) ~dom:t.dom.Xensim.Domain.id
          ~peer:t.backend_dom.Xensim.Domain.id ~writable buffer
      in
      let id = t.next_id in
      t.next_id <- (t.next_id + 1) land 0xffff;
      let p, waker = wait () in
      let span =
        Trace.span ~dom:t.dom.Xensim.Domain.id ~cat:Trace.Device
          (if op = `Read then "blkif.read" else "blkif.write")
      in
      Hashtbl.replace t.pending id { gref; buffer; waker; span };
      let slot = Xensim.Ring.Front.next_request t.front in
      Bytestruct.set_uint8 slot 0 (if op = `Read then 0 else 1);
      Bytestruct.LE.set_uint16 slot 2 id;
      Bytestruct.LE.set_uint64 slot 8 (Int64.of_int sector);
      Bytestruct.LE.set_uint16 slot 16 count;
      Bytestruct.LE.set_uint32_int slot 20 gref;
      t.requests <- t.requests + 1;
      if Xensim.Ring.Front.push_requests_and_check_notify t.front then
        Xensim.Evtchn.notify (evtchn t) t.port_front;
      bind
        (Xensim.Domain.charge t.dom ~cost:t.dom.Xensim.Domain.platform.Platform.per_packet_ns)
        (fun () ->
          bind p (function Ok data -> return data | Error e -> fail e)))

let read t ~sector ~count =
  if count <= 0 || count > 0xffff then invalid_arg "Blkif.read: bad count";
  let buffer = Bytestruct.create (count * sector_bytes t) in
  submit t ~op:`Read ~sector ~count ~buffer

let write t ~sector data =
  let open Mthread.Promise in
  let len = Bytestruct.length data in
  if len mod sector_bytes t <> 0 then invalid_arg "Blkif.write: partial sector";
  let count = len / sector_bytes t in
  bind (submit t ~op:`Write ~sector ~count ~buffer:data) (fun _ -> return ())
