(** The RBAC policy store: users, roles, permissions and their
    assignment relations (UA and PA), plus the role hierarchy and
    static separation-of-duty constraints.

    This is the plain-RBAC half of the model — the baseline the
    coordinated (spatio-temporal) extension is measured against. *)

type user = string
type role = string
type t

val create : unit -> t
val hierarchy : t -> Hierarchy.t

val version : t -> int
(** Monotone mutation counter: bumped by every administrative change
    ([add_user], [grant], [add_dsd], …).  Two reads returning the same
    number mean the policy was not administratively modified in
    between, which lets callers use the version as a cache stamp. *)

(** {2 Administration} *)

val add_user : t -> user -> unit
val add_role : t -> role -> unit
val add_inheritance : t -> senior:role -> junior:role -> unit
(** @raise Hierarchy.Cycle *)

exception Unknown of string * string
(** [(kind, name)], e.g. [("role", "auditor")]. *)

exception Ssd_violation of Sod.t * user * role

val assign_user : t -> user -> role -> unit
(** @raise Unknown on undeclared user/role.
    @raise Ssd_violation when an SSD constraint forbids it. *)

val deassign_user : t -> user -> role -> unit
val grant : t -> role -> Perm.t -> unit
(** @raise Unknown on undeclared role. *)

val revoke : t -> role -> Perm.t -> unit

val add_ssd : t -> Sod.t -> unit
(** @raise Invalid_argument if an existing assignment already violates
    the new constraint. *)

val add_dsd : t -> Sod.t -> unit

(** {2 Review} *)

val users : t -> user list
val roles : t -> role list
val ssd_constraints : t -> Sod.t list
(** In insertion order. *)

val dsd_constraints : t -> Sod.t list
(** In insertion order. *)

val assigned_roles : t -> user -> role list
(** Directly assigned, sorted. *)

val authorized_roles : t -> user -> role list
(** Assigned roles plus everything they dominate (the roles the user
    may activate), sorted. *)

val direct_permissions : t -> role -> Perm.t list

val role_permissions : t -> role -> Perm.t list
(** With inheritance: the role's own permissions plus its juniors'. *)

val user_permissions : t -> user -> Perm.t list
(** Union over the user's authorized roles. *)

type field = Any | Is of string  (** [Any] is a ["*"] field *)

type split_perm = { op : field; resource : field; server : field }
(** A permission split at its target's first ['@'], as {!Perm.matches}
    reads it. *)

val compiled_permissions : t -> role -> split_perm array
(** {!role_permissions}, split, without the permissions that match no
    ["resource@server"] target; empty for an unknown role.  Read from
    the policy's compiled table: one immutable table per {!version},
    built by the first compiled read after the version moves and shared
    by every domain holding the policy.  A compiled read at an
    unchanged version allocates nothing. *)

val compiled_role_permissions : t -> role -> Perm.t array
(** {!role_permissions} from the compiled table; empty for an unknown
    role. *)

val compiled_authorized_roles : t -> user -> role list
(** {!authorized_roles} from the compiled table; empty for an unknown
    user. *)

val is_user : t -> user -> bool
(** Whether the user was declared, without listing {!users}. *)

val users_of_role : t -> role -> user list
(** Users directly assigned the role. *)

val pp : Format.formatter -> t -> unit
