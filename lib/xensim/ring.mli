(** The Xen shared-memory ring protocol — "the base abstraction for all I/O
    throughout Mirage" (paper §3.4).

    One 4 kB page holds free-running 32-bit producer/consumer indices
    ([req_prod], [req_event], [rsp_prod], [rsp_event] — exactly the struct
    the paper's cstruct example maps) followed by a power-of-two array of
    fixed-size slots. Responses are written into the same slots as requests;
    the frontend flow-controls to avoid overflowing the ring. The
    [push_*_and_check_notify] / [final_check_*] operations implement Xen's
    event-suppression protocol so idle rings cost no notifications. *)

(** The shared ring structure laid out on a granted page. *)
module Sring : sig
  type t

  (** [init page ~slot_bytes] zeroes the indices and computes geometry
      (frontend side). @raise Invalid_argument if the page cannot hold at
      least one slot. *)
  val init : Bytestruct.t -> slot_bytes:int -> t

  (** [attach page ~slot_bytes] wraps an already-initialised page (backend
      side, after grant-mapping it). *)
  val attach : Bytestruct.t -> slot_bytes:int -> t

  (** [page_bytes ~slot_bytes n] is the size of a page holding exactly
      [n] slots after the index header; [n] should be a power of two, or
      {!init} rounds the slot count down. *)
  val page_bytes : slot_bytes:int -> int -> int

  (** Number of slots (a power of two). *)
  val nr_slots : t -> int

  (** [slot t i] is the view for free-running index [i] (wrapped mod
      {!nr_slots}). *)
  val slot : t -> int -> Bytestruct.t
end

(** Frontend (request producer / response consumer). *)
module Front : sig
  type t

  val init : Sring.t -> t

  (** Ring size in slots. *)
  val nr_slots : t -> int

  (** Request slots available before the ring is full. *)
  val free_requests : t -> int

  (** [next_request t] claims the next request slot.
      @raise Failure when the ring is full (callers must flow-control). *)
  val next_request : t -> Bytestruct.t

  (** Publish claimed requests; [true] means the backend must be notified
      (event suppression decided it is asleep). *)
  val push_requests_and_check_notify : t -> bool

  (** Consume available responses; returns how many were handled. Sets
      [rsp_event] so the backend will notify when more arrive, and re-checks
      once afterwards (Xen's final-check idiom). *)
  val consume_responses : t -> (Bytestruct.t -> unit) -> int

end

(** Backend (request consumer / response producer). *)
module Back : sig
  type t

  val init : Sring.t -> t

  (** Consume available requests; same final-check contract as
      {!Front.consume_responses}. *)
  val consume_requests : t -> (Bytestruct.t -> unit) -> int

  (** Requests consumed but not yet answered by {!next_response}. *)
  val unanswered : t -> int

  (** [oldest_unanswered t] is the slot of the oldest consumed request
      still awaiting its response — the very slot {!next_response} will
      return, so a backend can read a request's fields there instead of
      copying them out at consume time. The frontend cannot reuse it
      until the response is pushed and consumed.
      @raise Failure when {!unanswered} is 0. *)
  val oldest_unanswered : t -> Bytestruct.t

  (** [next_response t] claims the next response slot (aliasing the oldest
      consumed request slot). *)
  val next_response : t -> Bytestruct.t

  val push_responses_and_check_notify : t -> bool
end
