(** Variable environments for SRAL programs.

    An environment maps variable names (the syntactic set [V] of the
    paper) to runtime values.  Environments are immutable; the agent
    machine threads them through its small-step transitions. *)

type t

val empty : t
val of_list : (string * Value.t) list -> t
val bind : t -> string -> Value.t -> t
val find : t -> string -> Value.t option

val mem : t -> string -> bool
val bindings : t -> (string * Value.t) list
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
