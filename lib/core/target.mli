(** The three compilation targets of the progressive developer workflow
    (paper §5.4): one appliance, three device configurations. Each target
    selects which backend the application functors are applied to
    ({!Appliance}) and which libraries the specialiser links
    ({!Specialize}). *)

type t =
  | Posix_sockets
      (** a host process over kernel sockets — fast edit/debug cycle,
          host stack does the protocols *)
  | Posix_direct
      (** a host process running the full unikernel netstack over a
          copy-taxed tuntap device *)
  | Xen_direct  (** the sealed unikernel on the PV ring — the deploy target *)

val to_string : t -> string

(** Inverse of {!to_string}; also accepts ["xen"]. *)
val of_string : string -> t option

(** All targets, workflow order. *)
val all : t list
