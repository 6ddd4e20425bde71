(** Configuration-as-code (paper §2.1, §2.3.1).

    Instead of ad-hoc text files glued by shell scripts, a unikernel's
    configuration is a typed value evaluated at compile time. Each key is
    either [Static] — folded into the image, enabling dead-code elimination
    but requiring a rebuild (and precluding copy-on-write cloning, since
    identity is baked in) — or [Dynamic], resolved at boot (e.g. DHCP),
    keeping the image clonable. *)

type value =
  | Bool of bool
  | Int of int
  | String of string
  | Ip of Netstack.Ipaddr.t

type binding = { key : string; value : value; static : bool }

type t = {
  app_name : string;
  roots : string list;  (** libraries the application links against *)
  bindings : binding list;
  aslr_seed : int;  (** per-deployment seed for compile-time ASR (§2.3.4) *)
  app_text_bytes : int;  (** the application's own code *)
  app_loc : int;
}

exception Type_error of string

val make :
  app_name:string ->
  roots:string list ->
  ?bindings:binding list ->
  ?aslr_seed:int ->
  ?app_text_bytes:int ->
  ?app_loc:int ->
  unit ->
  t

val static : string -> value -> binding
val dynamic : string -> value -> binding

val find : t -> string -> value option

(** @raise Type_error when present with another type. *)
val ip : t -> string -> Netstack.Ipaddr.t option

val string : t -> string -> string option
val int : t -> string -> int option
val bool : t -> string -> bool option

(** A VM image is clonable by copy-on-write snapshot only if no
    identity-bearing configuration was compiled in (§2.3.1). *)
val clonable : t -> bool
