(** HTTP/1.1 message types and (de)serialisation over a {!Device_sig.Reader}. *)

type meth = GET | POST | PUT | DELETE | HEAD

type request = {
  meth : meth;
  path : string;
  version : string;
  headers : (string * string) list;  (** names lowercased *)
  body : string;
}

type response = {
  status : int;
  reason : string;
  resp_headers : (string * string) list;
  resp_body : string;
}

val header : (string * string) list -> string -> string option

(** True unless [Connection: close] (HTTP/1.1 default keep-alive). *)
val keep_alive : (string * string) list -> bool

(** Build a response; adds Content-Length automatically. *)
val response : ?headers:(string * string) list -> status:int -> string -> response

val render_request : request -> string
val render_response : response -> string

exception Bad_request of string

(** Read one request from the flow; [None] at a clean end-of-stream.
    @raise Bad_request (in the promise) on malformed input. *)
val read_request : Device_sig.Reader.t -> request option Mthread.Promise.t

val read_response : Device_sig.Reader.t -> response option Mthread.Promise.t
