(** Complete deterministic finite automata over an explicit alphabet.

    A DFA is always complete with respect to its [alphabet] array — a
    sink state absorbs missing transitions — so complementation is just
    flipping finals, and the boolean {!product} covers intersection,
    union, difference and symmetric difference.  These are the
    workhorses of the Section 3.3 decision procedure. *)

type t = private {
  num_states : int;
  alphabet : Symbol.t array;
  start : int;
  finals : bool array;
  next : int array array;
      (** [next.(q).(i)] is the successor of [q] on [alphabet.(i)]. *)
}

val of_tables :
  alphabet:Symbol.t list ->
  start:int ->
  finals:bool array ->
  next:int array array ->
  t
(** Build a complete DFA from explicit tables.  [next.(q).(i)] is the
    successor of [q] on the [i]-th symbol of the (sorted, de-duplicated)
    alphabet.  @raise Invalid_argument on inconsistent sizes or
    out-of-range targets. *)

exception Over_budget of int
(** The state budget a construction ran out of. *)

val of_nfa : ?max_states:int -> alphabet:Symbol.t list -> Nfa.t -> t
(** Subset construction.  Symbols of the NFA outside [alphabet] are
    ignored (they can never appear in a word over [alphabet]).
    [max_states] defaults to unbounded.
    @raise Over_budget once the construction would create more than
    [max_states] states. *)

val minimize : t -> t
(** Moore partition refinement; result is reachable and minimal. *)

val product : (bool -> bool -> bool) -> t -> t -> t
(** [product f d1 d2] accepts [w] iff [f (d1 accepts w) (d2 accepts w)].
    The operands must have equal alphabets.
    @raise Invalid_argument otherwise. *)

val complement : t -> t
val inter : t -> t -> t
val union : t -> t -> t
val diff : t -> t -> t

val accepts : t -> Symbol.t list -> bool
(** Symbols outside the alphabet make the word rejected. *)

val is_empty : t -> bool
(** No reachable final state. *)

val run : t -> Symbol.t list -> int option
(** State reached from the start on the word; [None] if a symbol is
    outside the alphabet. *)

val final_reachable_from : t -> int -> bool
(** Can some final state be reached from the given state?  Together
    with {!run} this decides residual-language non-emptiness: whether a
    performed prefix can still be extended to an accepted word. *)

val shortest_witness : t -> Symbol.t list option
(** A shortest accepted word, if any (BFS). *)

val equiv : t -> t -> bool
(** Language equality (same alphabet required). *)

val subset : t -> t -> bool
(** Language inclusion (same alphabet required). *)

val universal_lang : alphabet:Symbol.t list -> t
(** Accepts every word over the alphabet. *)

val empty_lang : alphabet:Symbol.t list -> t

val num_states : t -> int
val pp : Format.formatter -> t -> unit
