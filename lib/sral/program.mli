(** Static analyses over SRAL programs. *)

val size : Ast.t -> int
(** Number of AST nodes — the [m] of Theorem 3.2. *)

val accesses : Ast.t -> Access.t list
(** The access alphabet of the program: every distinct [op r @ s]
    occurring syntactically, sorted. *)

val servers : Ast.t -> string list
(** Distinct servers named by the program's accesses, sorted. *)

val resources : Ast.t -> string list
(** Distinct resources named by the program's accesses, sorted. *)

val channels : Ast.t -> string list
(** Channels used by [?] or [!], sorted. *)

val signals : Ast.t -> string list
(** Events used by [signal]/[wait], sorted. *)

val free_vars : Ast.t -> string list
(** Variables read before being bound by [:=] or [?] on every path is a
    flow question; this is the simpler syntactic over-approximation:
    all variables occurring in expressions, minus none.  Sorted. *)

val has_par : Ast.t -> bool
val has_loop : Ast.t -> bool

val access_count : Ast.t -> int
(** Number of access occurrences (with repetition). *)

val server_flow : Ast.t -> (string * string) list
(** Possible migration edges: pairs [(s, s')] with [s <> s'] such that
    some execution performs an access at [s] directly followed by one
    at [s'].  Computed on the trace-model structure (conditions not
    evaluated), so it over-approximates real runs the same way
    [traces] does.  Sorted, distinct. *)

val normalize : Ast.t -> Ast.t
(** Remove [Skip] units: [Seq (Skip, p) = p], [Par (p, Skip) = p], etc.
    Trace-model preserving. *)
