(** Grant tables: page-granularity memory sharing checked by the hypervisor
    (paper §3.4.1).

    A domain grants a peer access to one of its pages and passes the small
    integer grant reference over a device ring; the peer maps it (a shared
    view — genuinely zero-copy in this model, since views alias storage) or
    asks the hypervisor to copy it. Revoking an actively-mapped grant is
    refused, mirroring Xen's busy-grant behaviour. *)

type t
type grant_ref = int

exception Invalid_grant of grant_ref
exception Grant_busy of grant_ref
exception Permission_denied of grant_ref

val create : stats:Xstats.t -> t

(** [grant_access t ~dom ~peer ~writable page] shares [page] (owned by
    domain [dom]) with [peer]. *)
val grant_access :
  t -> dom:int -> peer:int -> writable:bool -> Bytestruct.t -> grant_ref

(** [grant_access_deferred t ~dom ~peer ~writable ~fill key] grants a
    page that does not exist yet: the first {!map}, {!map_rw} or
    {!copy_to} through the grant calls [fill key] once and keeps the page
    it returns. Receive credit posted on device rings is the intended
    user: netfront posts up to 511 buffers per vif, and in a large boot
    storm most are revoked without ever carrying a frame. One [fill]
    closure serves every credit of a device, [key] naming the credit, so
    a deferred grant allocates nothing beyond the entry an eager one
    does. *)
val grant_access_deferred :
  t -> dom:int -> peer:int -> writable:bool -> fill:(int -> Bytestruct.t) -> int -> grant_ref

(** [map t ~by ref] returns a view aliasing the granted page.
    @raise Permission_denied when [by] is not the grantee. *)
val map : t -> by:int -> grant_ref -> Bytestruct.t

(** Mapping for writing; @raise Permission_denied on read-only grants. *)
val map_rw : t -> by:int -> grant_ref -> Bytestruct.t

val unmap : t -> by:int -> grant_ref -> unit

(** Hypervisor-mediated copy of [src] into the granted page (netback's
    receive path, GNTTABOP_copy). @raise Permission_denied unless the grant
    is writable and [by] is the grantee. *)
val copy_to : t -> by:int -> grant_ref -> src:Bytestruct.t -> unit

(** [end_access t ref] revokes the grant.
    @raise Grant_busy while the peer still has it mapped. *)
val end_access : t -> grant_ref -> unit

(** Number of live (unrevoked) grants — leak detection in tests. *)
val active_grants : t -> int

