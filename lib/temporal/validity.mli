(** Permission validity durations — Equation 4.1 of the paper.

    Each permission carries a validity duration [dur(perm)] (a positive
    rational, or [None] for ∞, meaning the resource is
    time-insensitive).  Its [valid] state function satisfies

    {v  valid(t) = 1  ⟺  active(t) = 1  ∧  ∫_tb^t valid(u) du ≤ dur  v}

    i.e. the permission stays valid while active, until it has
    accumulated [dur] units of validity since the base time [tb]; past
    that it is invalid forever (with respect to that base time).

    Two base-time schemes (Section 4): [Per_server] takes [tb] to be
    the arrival time at the current server, so the budget resets at
    each migration; [Whole_journey] takes [tb] to be the arrival time
    at the first server, so the budget spans the object's entire
    execution. *)

type scheme = Per_server | Whole_journey

val pp_scheme : Format.formatter -> scheme -> unit

val valid_fn :
  scheme:scheme -> arrivals:Q.t list -> dur:Q.t option -> Step_fn.t -> Step_fn.t
(** [valid_fn ~scheme ~arrivals ~dur active] is the unique solution of
    Eq. 4.1.  [arrivals] are the object's server-arrival times,
    ascending; with [Per_server] the accumulation restarts at each.
    Activity before the first arrival never counts.
    @raise Invalid_argument if [arrivals] is empty or not sorted, or if
    [dur] is negative. *)

val is_valid_at :
  scheme:scheme -> arrivals:Q.t list -> dur:Q.t option -> Step_fn.t -> Q.t -> bool
(** [is_valid_at ... active t] = value of {!valid_fn} at [t]. *)

val spent :
  scheme:scheme -> arrivals:Q.t list -> dur:Q.t option -> Step_fn.t -> at:Q.t -> Q.t
(** Validity budget consumed in the current base-time window at [at]. *)

val spent_of_valid :
  scheme:scheme -> arrivals:Q.t list -> Step_fn.t -> at:Q.t -> Q.t
(** {!spent} from a valid function already built by {!valid_fn} with
    the same [scheme] and [arrivals], so a caller that also reads the
    function's value builds it once. *)

val as_dc_formula : dur:Q.t -> valid_var:string -> Duration_calculus.t
(** The Theorem 4.1 constraint [∫valid ≤ dur] as a duration-calculus
    formula over the given state-variable name, for checking with
    {!Duration_calculus.sat} on [[tb, t]]. *)
