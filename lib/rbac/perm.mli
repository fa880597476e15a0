(** RBAC permissions.

    A permission is an approved operation on a protected object
    (Section 3.4).  Objects are named by strings; in the coalition
    setting the convention is ["resource@server"], and either field
    may be the wildcard ["*"]. *)

type t = { operation : string; target : string }

val make : operation:string -> target:string -> t

val split_target : string -> string * string option
(** Split a target at its first ['@']: ["db@s1"] is [("db", Some "s1")],
    ["*"] is [("*", None)].  This is the exact decomposition {!matches}
    uses — exposed so index structures can bucket patterns the same
    way the matcher reads them. *)

val matches : t -> operation:string -> target:string -> bool
(** Wildcard-aware: a ["*"] operation or target in the permission
    matches anything; a ["res@*"] target matches any server for that
    resource (and symmetrically ["*@srv"]).  Compares the fields in
    place and allocates nothing. *)

val matches_at :
  t -> operation:string -> resource:string -> server:string -> bool
(** [matches_at p ~operation ~resource ~server] is
    [matches p ~operation ~target:(resource ^ "@" ^ server)], without
    building the target unless [resource] itself holds an ['@']. *)

val overlaps : t -> t -> bool
(** Do the two (possibly wildcarded) patterns cover a common concrete
    permission?  Used by policy linting: a binding whose pattern
    overlaps no granted permission is dead. *)

val subsumes : t -> t -> bool
(** [subsumes p1 p2]: does pattern [p1] cover every concrete permission
    [p2] covers?  Field-wise: a ["*"] field of [p1] covers anything, a
    concrete field only its equal.  Whenever [subsumes p1 p2], any
    access {!matches}-covered by [p2] is covered by [p1], and a held
    permission matching the query [p1] also matches the query [p2] —
    the two facts the policy analyzer's shadowing check relies on. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string

val of_string : string -> t
(** ["operation:target"], e.g. ["read:db@s1"].
    @raise Invalid_argument on missing colon. *)
