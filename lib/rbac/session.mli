(** Sessions (the paper's "subjects").

    A subject relates a user to possibly many roles: after
    authentication the user establishes a session and requests
    activation of roles they are authorized for; only permissions of
    *active* roles are exercisable (Section 3.4). *)

type t

exception Not_authorized of string * string
(** [(user, role)] *)

exception Dsd_violation of Sod.t * string * string

val create : Policy.t -> user:string -> t
(** @raise Policy.Unknown on an undeclared user. *)

val user : t -> string
val policy : t -> Policy.t
val active_roles : t -> string list
(** Sorted. *)

val version : t -> int
(** Monotone stamp covering everything an RBAC decision for this
    session reads: it grows whenever the active-role set actually
    changes ({!activate}/{!deactivate}/{!drop} that are no-ops leave it
    alone) and whenever the backing {!Policy} is administratively
    modified.  Equal stamps ⟹ [may] answers are unchanged. *)

val compiled_permissions : t -> Policy.split_perm array
(** The active roles' {!Policy.compiled_permissions}: the policy's own
    array when one role is active, their concatenation when more are.
    The session keeps the array with the {!version} it was read at and
    reads it again only when that stamp moves, so a call at an
    unchanged stamp allocates nothing and looks up no role.  Anything
    that changes the active roles or the policy must therefore move
    {!version}, or this returns a stale array. *)

val activate : t -> string -> unit
(** The authorized roles are read from the policy's compiled table
    ({!Policy.compiled_authorized_roles}).
    @raise Not_authorized when the user may not activate the role;
    @raise Dsd_violation when dynamic separation of duty forbids it.
    Idempotent on an already-active role. *)

val deactivate : t -> string -> unit

val drop : t -> unit
(** Deactivate everything (session end). *)

val may : t -> operation:string -> target:string -> bool
(** Plain-RBAC decision: some active role carries (possibly by
    inheritance) a permission that {!Perm.matches} the request.  This
    is the baseline [Engine] builds on.  It derives each active role's
    permissions anew on every call: the oracle {!Engine.may_compiled}
    is tested against. *)

val pp : Format.formatter -> t -> unit
