(** `ss`-style rendering of a stack's TCP + UDP socket tables — the
    operator's "what connections does this appliance have, in what
    state?" view. Columns: Netid, State, Recv-Q, Send-Q, Local, Peer,
    then per-protocol detail (cwnd/ssthresh/srtt/rto/retx/age for TCP
    flows, rx/tx/idle/age for bound UDP ports). Rows come from
    {!Tcp.sockets} and {!Udp.sockets} and are deterministically
    ordered. *)

(** The column-header line (no trailing newline). *)
val header : string

(** The full table, header first, one socket per line. *)
val render : Stack.t -> string
