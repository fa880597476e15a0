(** Whole-policy semantic analysis.

    Every check here reuses the decision-time machinery: each binding's
    spatial formula is compiled through {!Srac.Compile} to a complete
    DFA over one shared alphabet — the {!Srac.Decide} closure alphabet
    of all formulas, extended with the world's universe when a world is
    given — and the findings are automata-theoretic facts about those
    languages:

    - {b Unsatisfiable}: the constraint language is empty; the binding
      denies every access it applies to, under any itinerary.
    - {b Vacuous}: the language is universal; the spatial constraint
      restricts nothing (the binding may still act temporally).
    - {b Shadowed}: a winner binding [w] makes loser [l] redundant —
      [w]'s pattern {!Rbac.Perm.subsumes} [l]'s, scope, modality and
      proof scope agree, [L(C_w) ⊆ L(C_l)] by product-DFA inclusion,
      [l] carries no duration, and (for [Performed] scope) [C_w]'s
      mentioned accesses are among [C_l]'s, so [l]'s restricted-alphabet
      activation is implied by [w]'s.  Each binding keeps its own
      activation history at runtime (bindings sharing [l]'s permission
      included), so removing [l] then changes no grant/deny outcome.
    - {b Unexercisable}: in the given world, no performable trace
      exercises the binding — the product of constraint language,
      reachable-itinerary language and "ends with a pattern-covered
      access" language is empty.
    - {b Temporal_excluded}: the binding's validity window cannot
      overlap any spatially-satisfying epoch — every trace reaching a
      grantable access needs at least [needed = ℓ·step] time
      ([ℓ] = shortest word of the product above), and the
      whole-journey budget is [budget ≤ needed], so the permission has
      always expired by the time it could first be granted.

    World-dependent findings are relative to the world's execution
    model: agents enter at time 0, perform one action per [step], and
    hold their authorized roles for the whole journey.  [Per_server]
    schemes are never flagged temporally (the budget resets on
    migration, and an arrival can coincide with the access).  All
    findings are sound for that model — zero false positives, enforced
    by the replay oracle in [test/test_analysis.ml] — and deliberately
    incomplete (a binding may be useless in ways the automata cannot
    see). *)

type finding =
  | Unsatisfiable of { index : int; binding : string }
  | Vacuous of { index : int; binding : string }
  | Shadowed of { index : int; binding : string; by_index : int; by : string }
  | Unexercisable of { index : int; binding : string }
  | Temporal_excluded of {
      index : int;
      binding : string;
      needed : Temporal.Q.t;  (** earliest possible grant instant *)
      budget : Temporal.Q.t;  (** the binding's whole-journey duration *)
    }
      (** [index] is the binding's 0-based declaration index in the
          policy file; [binding] its permission key. *)

type report = {
  findings : finding list;
      (** declaration order; within one binding: unsatisfiable,
          vacuous, shadowed, unexercisable, temporal. *)
  bindings : int;  (** number of bindings analyzed *)
  alphabet : int;  (** size of the shared analysis alphabet *)
  truncated : bool;
      (** the closure alphabet exceeded {!Srac.Decide.max_closure}:
          only per-binding satisfiability/vacuity was checked, with
          {!Srac.Decide}'s own conservative fallback *)
}

val selectors_covered : universe:Sral.Access.t list -> Srac.Formula.t -> bool
(** Is restricted-alphabet activation exact for this constraint in this
    universe — i.e. is every universe access matched by one of its Card
    selectors also mentioned by one of its atoms/orderings?  The
    precondition under which a [Performed]-scope binding's runtime
    activation provably holds along every satisfying walk (used by the
    temporal-exclusion checks here and in {!Safety}). *)

val analyze : ?world:World.t -> Coordinated.Policy_lang.t -> report
(** Without a world, only the world-independent findings
    (unsatisfiable, vacuous, shadowed) are produced. *)

val witnesses :
  world:World.t ->
  Coordinated.Policy_lang.t ->
  (int * string * Sral.Trace.t) list
(** For each binding the world can exercise: [(index, key, walk)] with
    a shortest performable walk whose last access the binding covers
    and which satisfies its constraint — a replayable certificate that
    the binding is {e not} unexercisable (feed it to
    {!Safety.replay}).  Bindings with an empty product are absent.
    Empty when the joint alphabet exceeds {!Srac.Decide.max_closure}. *)
