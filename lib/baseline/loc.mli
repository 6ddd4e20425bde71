(** Active lines-of-code accounting (Figure 14a).

    The paper pre-processes sources (default configuration, macros,
    comments and whitespace removed) and ignores kernel code with no
    Mirage analogue. These figures are that methodology's outputs, cited
    as data; they are inputs to the comparison, not measurements this
    reproduction can regenerate from source trees it does not have. *)

type component = { name : string; loc : int }

(** Total active LoC of a Linux appliance for a role. *)
val linux_appliance : role:[ `Dns | `Web_static | `Web_dynamic | `Openflow ] -> component list

(** Mirage appliance LoC for the same role (only linked libraries count —
    compile-time specialisation drops the rest). *)
val mirage_appliance : role:[ `Dns | `Web_static | `Web_dynamic | `Openflow ] -> component list

val total : component list -> int
