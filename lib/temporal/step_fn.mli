(** Right-continuous boolean step functions over continuous time.

    Section 4 models permission states as boolean-valued functions
    [Time → {0,1}].  A step function is an initial value plus a finite,
    strictly increasing sequence of change points; its value at [t] is
    the value set by the last change at or before [t].  All operations
    keep the representation normalized (consecutive changes alternate),
    so structural equality is extensional equality. *)

type t

val const : bool -> t

val of_changes : init:bool -> (Q.t * bool) list -> t
(** Changes need not be normalized (they are sorted and de-duplicated,
    later entries at the same time winning, redundant entries dropped).
    @raise Invalid_argument on two different values at the same time
    appearing in an ambiguous order?  No — last one wins, by design. *)

val of_intervals : Interval.t list -> t
(** True exactly on the union of the (right-open versions of the)
    intervals: each [[lo,hi]] contributes truth on [[lo,hi)). Point
    intervals therefore contribute nothing (they have measure zero). *)

val value_at : t -> Q.t -> bool
val not_ : t -> t
val and_ : t -> t -> t
val or_ : t -> t -> t

val integrate : t -> Interval.t -> Q.t
(** Measure of [{t ∈ iv | f t}] — the paper's [∫ valid(perm, t) dt]. *)

val accum_reaches : t -> from:Q.t -> budget:Q.t -> Q.t option
(** Earliest [u >= from] such that the measure of
    [{t ∈ [from,u] | f t}] equals [budget], i.e. the moment a validity
    budget is exhausted.  [None] if the total accumulation after [from]
    never reaches [budget] (requires the function to be eventually
    constant, which a finite representation always is).
    @raise Invalid_argument on negative budget. *)

val changes : t -> (Q.t * bool) list
(** Normalized change list. *)

val change_times_in : t -> Interval.t -> Q.t list
(** Change points strictly inside the interval, ascending. *)

val initial : t -> bool
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
