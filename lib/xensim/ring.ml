(* Free-running indices live in the shared page as unsigned 32-bit values;
   we keep them as OCaml ints in [0, 2^32) and wrap explicitly, matching the
   C macros' modular arithmetic. *)

let u32 x = x land 0xFFFFFFFF

let header_bytes = 64

(* One event per batch; its [n] payload is the number of slots. *)
let trace_push name ~n ~notify =
  if n > 0 && Trace.enabled () then
    Trace.emit ~cat:Trace.Ring
      ~payload:[ ("n", Trace.Int n); ("notify", Trace.Bool notify) ]
      name

let trace_consume name ~n =
  if n > 0 && Trace.enabled () then Trace.emit ~cat:Trace.Ring ~payload:[ ("n", Trace.Int n) ] name

module Sring = struct
  type t = { page : Bytestruct.t; slot_bytes : int; nr_slots : int }

  let geometry page ~slot_bytes =
    if slot_bytes <= 0 then invalid_arg "Sring: slot_bytes must be positive";
    let space = Bytestruct.length page - header_bytes in
    if space < slot_bytes then invalid_arg "Sring: page too small for one slot";
    let raw = space / slot_bytes in
    (* Round down to a power of two so index wrapping is a mask. *)
    let rec pow2 acc = if acc * 2 <= raw then pow2 (acc * 2) else acc in
    pow2 1

  let attach page ~slot_bytes = { page; slot_bytes; nr_slots = geometry page ~slot_bytes }
  let page_bytes ~slot_bytes n = header_bytes + (n * slot_bytes)

  let init page ~slot_bytes =
    let t = attach page ~slot_bytes in
    (* As RING_INIT: producers at 0, event thresholds armed at 1 so the
       very first push triggers a notification. *)
    Bytestruct.LE.set_uint32_int page 0 0;
    Bytestruct.LE.set_uint32_int page 4 1;
    Bytestruct.LE.set_uint32_int page 8 0;
    Bytestruct.LE.set_uint32_int page 12 1;
    t

  let nr_slots t = t.nr_slots

  let slot t i =
    let idx = i land (t.nr_slots - 1) in
    Bytestruct.sub t.page (header_bytes + (idx * t.slot_bytes)) t.slot_bytes

  let get t off = Bytestruct.LE.get_uint32_int t.page off
  let set t off v = Bytestruct.LE.set_uint32_int t.page off v

  let req_prod t = get t 0
  let set_req_prod t v = set t 0 v
  let req_event t = get t 4
  let set_req_event t v = set t 4 v
  let rsp_prod t = get t 8
  let set_rsp_prod t v = set t 8 v
  let rsp_event t = get t 12
  let set_rsp_event t v = set t 12 v
end

(* Unsigned-wrapping difference a - b (mod 2^32). *)
let diff a b = u32 (a - b)

module Front = struct
  type t = { sring : Sring.t; mutable req_prod_pvt : int; mutable rsp_cons : int }

  let init sring = { sring; req_prod_pvt = 0; rsp_cons = 0 }
  let nr_slots t = Sring.nr_slots t.sring

  let free_requests t = Sring.nr_slots t.sring - diff t.req_prod_pvt t.rsp_cons

  let next_request t =
    if free_requests t = 0 then failwith "Ring.Front.next_request: ring full";
    let s = Sring.slot t.sring t.req_prod_pvt in
    t.req_prod_pvt <- u32 (t.req_prod_pvt + 1);
    s

  let push_requests_and_check_notify t =
    let old = Sring.req_prod t.sring in
    let fresh = t.req_prod_pvt in
    Sring.set_req_prod t.sring fresh;
    (* notify iff the producer advanced past req_event: the consumer armed
       the event and went to sleep before these requests landed. *)
    let notify = diff fresh (Sring.req_event t.sring) < diff fresh old in
    trace_push "ring.push_req" ~n:(diff fresh old) ~notify;
    notify

  let has_unconsumed_responses t = diff (Sring.rsp_prod t.sring) t.rsp_cons > 0

  let consume_responses t f =
    let handled = ref 0 in
    let rec loop () =
      while has_unconsumed_responses t do
        let s = Sring.slot t.sring t.rsp_cons in
        t.rsp_cons <- u32 (t.rsp_cons + 1);
        incr handled;
        f s
      done;
      (* Final check: arm the event, then look again to close the race
         where the producer published between our loop and the arm. *)
      Sring.set_rsp_event t.sring (u32 (t.rsp_cons + 1));
      if has_unconsumed_responses t then loop ()
    in
    loop ();
    trace_consume "ring.consume_rsp" ~n:!handled;
    !handled
end

module Back = struct
  type t = { sring : Sring.t; mutable rsp_prod_pvt : int; mutable req_cons : int }

  let init sring = { sring; rsp_prod_pvt = 0; req_cons = 0 }

  let has_unconsumed_requests t = diff (Sring.req_prod t.sring) t.req_cons > 0

  let consume_requests t f =
    let handled = ref 0 in
    let rec loop () =
      while has_unconsumed_requests t do
        let s = Sring.slot t.sring t.req_cons in
        t.req_cons <- u32 (t.req_cons + 1);
        incr handled;
        f s
      done;
      Sring.set_req_event t.sring (u32 (t.req_cons + 1));
      if has_unconsumed_requests t then loop ()
    in
    loop ();
    trace_consume "ring.consume_req" ~n:!handled;
    !handled

  let unanswered t = diff t.req_cons t.rsp_prod_pvt

  let oldest_unanswered t =
    if unanswered t = 0 then failwith "Ring.Back.oldest_unanswered: no unanswered request";
    Sring.slot t.sring t.rsp_prod_pvt

  let next_response t =
    let s = Sring.slot t.sring t.rsp_prod_pvt in
    t.rsp_prod_pvt <- u32 (t.rsp_prod_pvt + 1);
    s

  let push_responses_and_check_notify t =
    let old = Sring.rsp_prod t.sring in
    let fresh = t.rsp_prod_pvt in
    Sring.set_rsp_prod t.sring fresh;
    let notify = diff fresh (Sring.rsp_event t.sring) < diff fresh old in
    trace_push "ring.push_rsp" ~n:(diff fresh old) ~notify;
    notify
end
