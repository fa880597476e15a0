(** Mobile-object execution satisfaction checking — Definition 3.7 and
    Theorem 3.2.

    [P ⊨ C] relates a program's (possibly infinite) trace model to a
    constraint.  Section 3.4's [check(P, C)] asks whether the program
    *can* satisfy the constraint, i.e. the existential reading; the
    universal reading (every execution satisfies it) is what a
    prohibition needs.  Both are decided symbolically: build the trace
    DFA [A(P)] and the constraint DFA [A(C)] over their joint alphabet
    and test emptiness of a product — no trace enumeration, so loops
    and the infinite models they induce are handled exactly. *)

type modality =
  | Exists  (** some trace of [P] satisfies [C] — the paper's [check] *)
  | Forall  (** every trace of [P] satisfies [C] *)

type outcome = {
  holds : bool;
  witness : Sral.Trace.t option;
      (** [Exists]: a shortest satisfying trace when [holds];
          [Forall]: a shortest violating trace when [not holds]. *)
}

exception Over_budget of int
(** The state budget {!check} refused to exceed. *)

val check :
  ?proofs:Proof.store ->
  ?modality:modality ->
  ?budget:int ->
  Sral.Ast.t ->
  Formula.t ->
  outcome
(** [proofs] defaults to {!Proof.always} (static checking);
    [modality] defaults to [Exists].

    The program's trace DFA can be exponential in the program's size.
    With a [budget], {!check} raises {!Over_budget} before building
    anything when the program's NFA would have more than [budget]
    states ({!Automata.Of_program.nfa_states}), and during the subset
    construction once its DFA would.  Without one (the default) it is
    unbounded. *)

val check_bool :
  ?proofs:Proof.store -> ?modality:modality -> Sral.Ast.t -> Formula.t -> bool

type stats = {
  alphabet_size : int;
  program_states : int;  (** determinized program trace model *)
  constraint_states : int;  (** compiled constraint DFA *)
}

val instrument : ?proofs:Proof.store -> Sral.Ast.t -> Formula.t -> stats
(** The automata sizes {!check} would operate on — what the E2
    experiment reports to substantiate where the paper's O(m·n) claim
    holds and where constraint conjunctions blow up. *)

val prefix_feasible :
  ?universe:Sral.Access.t list -> performed:Sral.Trace.t -> Formula.t -> bool
(** Can the already-performed trace still be extended (by any accesses
    whatsoever) into one satisfying the constraint?  Decided as
    non-emptiness of the residual language of [A(C)] after the
    performed prefix.  This is the activation condition history-scoped
    constraints use: a prohibition like [#(0,n,σ)] stays feasible until
    the count is exceeded, while an obligation like [a₁⊗a₂] is feasible
    from the start.

    The residual is computed over the alphabet of the constraint's and
    the prefix's accesses plus [universe] (default empty); extensions
    using accesses outside that alphabet only matter through selectors,
    which is conservative in the feasible direction (a selector-matching
    fresh access could only *break* a cardinality bound, never repair
    unsatisfiability).  Pass a larger [universe] when the deployment
    knows which other accesses exist. *)
