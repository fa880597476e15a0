(** Trace model of an SRAL program as an NFA (Definition 3.2, made
    symbolic).

    Conditions are not evaluated — [if] contributes the union of both
    branches and [while] the Kleene closure of its body — exactly as in
    the paper's trace semantics.  Non-access primitives (channel I/O,
    signals, assignment) are trace-invisible and become epsilon. *)

val nfa : table:Symbol.table -> Sral.Ast.t -> Nfa.t
(** The program's accesses are interned into [table] (extending it). *)

val nfa_states : Sral.Ast.t -> int
(** [Nfa.num_states (nfa ~table p)], counted from the syntax without
    building anything: 1 per trace-invisible statement, 2 per access,
    the sum for [;], the sum plus 1 for [if] and [while], the product
    for [||].  Saturates at [max_int]. *)

val dfa :
  ?max_states:int ->
  table:Symbol.table ->
  alphabet:Symbol.t list ->
  Sral.Ast.t ->
  Dfa.t
(** Determinized (not minimized) trace model over the given alphabet.
    The alphabet must cover at least the program's own accesses if the
    result is to be exact; a larger alphabet (e.g. including accesses
    mentioned only by constraints) is typical.
    @raise Dfa.Over_budget past [max_states] (default unbounded). *)
