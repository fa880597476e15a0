(** Plain-RBAC access decisions (the baseline engine).

    Decision pipeline: the request names a session, an operation and a
    target; grant iff some role active in the session carries (possibly
    by inheritance) a permission matching the request.  No spatial or
    temporal reasoning — that is the [coordinated] library's
    extension, benchmarked against this engine in experiment E6. *)

type verdict = Granted | Denied of string

val decide : Session.t -> operation:string -> target:string -> verdict
(** A denial reads ["no active role of U grants O on T"], each name
    through {!Sral.Clip.clip}: a name of at most 64 bytes keeps its
    bytes, a longer one is cut to that prefix plus its length. *)

val decide_access : Session.t -> Sral.Access.t -> verdict
(** Convenience: target spelled ["resource@server"].  Builds the joined
    target and scans every active role's permissions on each call —
    the oracle {!decide_compiled} is tested against. *)

val decide_compiled : Session.t -> Sral.Access.t -> verdict
(** The same verdict and denial bytes as {!decide_access}, read from
    the session's split permissions ({!Session.compiled_permissions}):
    one array probed against the access's fields, with no role looked
    up by name, so a warm grant allocates nothing and a denial
    allocates only its message and its [Denied] box.  An access whose
    resource contains ['@'] is decided by {!decide_access} itself. *)

val may_compiled : Session.t -> operation:string -> target:string -> bool
(** {!Session.may}, read from the policy's compiled table
    ({!Policy.compiled_role_permissions}): each active role's closure
    permissions are matched in place, so a call allocates nothing. *)

val is_granted : verdict -> bool
val pp_verdict : Format.formatter -> verdict -> unit
