(** The coordinated access-control decision — Eq. 3.1 ∧ Eq. 4.1.

    A request is granted iff

    + plain RBAC grants it: some role active in the subject's session
      carries a matching permission ([r ∈ AR(s) ∧ perm ∈ RP(r)]);
    + every applicable binding's spatial constraint passes
      [check(P, C)] against the object's program and execution proofs
      (Theorem 3.2's polynomial checker); and
    + every applicable binding's validity duration has not been
      exhausted: [valid(perm, t) = 1] per Eq. 4.1 under the binding's
      base-time scheme.

    The decision also maintains the permission's activation function in
    the monitor: whenever the RBAC∧spatial state differs from the
    recorded one, a state change is logged at the decision time — this
    is the "event will be triggered to set valid to 0" mechanism of
    Section 4, made explicit. *)

type reason = Verdict.reason =
  | Rbac_denied of string
  | Spatial_violation of { binding : string; detail : string }
  | Temporal_expired of { binding : string; spent : Temporal.Q.t }
  | Not_active of string
      (** the permission is not in the active state at decision time
          (Eq. 3.1's conjunction failed earlier on this timeline) *)
  | Not_arrived  (** no arrival recorded — object not on any server *)
  | Server_unavailable of string
      (** fail-closed denial minted by the Naplet security manager when
          the target server is inside a crash window *)

type verdict = Verdict.t = Granted | Denied of reason

val decide_naive :
  ?companions:Monitor.t list ->
  bus:Obs.Bus.t ->
  session:Rbac.Session.t ->
  monitor:Monitor.t ->
  bindings:Perm_binding.t list ->
  program:Sral.Ast.t ->
  time:Temporal.Q.t ->
  Sral.Access.t ->
  verdict
(** Decide the access at the given time.  Inspects only bindings whose
    permission pattern covers the access.  [companions] are the
    monitors of the object's teammates, consulted by bindings with
    [Team] proof scope.  Each pipeline stage (rbac, spatial, temporal)
    is bracketed with {!Obs.Trace.Stage_start}/[Stage_end] span events
    on [bus], in evaluation order; the temporal stage runs only when
    the first two pass.  On a bus with no sink ({!Obs.Bus.observed} is
    false) no span event is built and the bus clock is not read.

    The linear-scan reference decision, kept as the differential
    oracle the lazy fast path is fuzz-tested against and as E13's
    baseline. *)

val decide_lazy :
  ?companions:Monitor.t list ->
  bus:Obs.Bus.t ->
  session:Rbac.Session.t ->
  monitor:Monitor.t ->
  applicable:Perm_binding.t list ->
  team_version:int ->
  program:Sral.Ast.t ->
  time:Temporal.Q.t ->
  Sral.Access.t ->
  verdict
(** The fast path.  [applicable] is the pre-filtered binding list (from
    {!Binding_index.applicable}), in binding-store insertion order —
    the caller is trusted to pass exactly the bindings {!decide_naive} would
    have selected.  [team_version] stamps the identity and order of
    [companions]: it must change whenever they do.

    Observationally identical to {!decide_naive} on the same inputs —
    verdicts, denial strings, stage spans, monitor clock and activation
    movement — but evaluates history-scope spatial constraints
    incrementally: each binding owns a {!Srac.Lazy_dfa} machine in the
    monitor's {!Residual} store, a cursor folds newly performed
    accesses into the residual state, and the grant / activation
    answers are memoized per-state nullability / feasibility bits.
    [Team]-scope bindings fold the team's time-merged history the same
    way: new entries that sort after the last folded one are appended,
    and the state is refolded from scratch when an entry sorts earlier
    or [team_version] moves.  A binding whose machine reaches
    {!Srac.Lazy_dfa.State_limit} is answered by the eager oracles from
    then on.  RBAC verdicts and role checks are cached per access /
    binding, stamped by {!Rbac.Session.version}.  The three stage spans
    are emitted exactly as the naive path emits them, but the spatial
    stage stops at the first failing binding.  On an unobserved bus the
    warm path performs zero allocation (benchmarked in E22,
    differentially fuzzed in [test/test_fuzz.ml]). *)

val refresh_activation :
  ?companions:Monitor.t list ->
  session:Rbac.Session.t ->
  monitor:Monitor.t ->
  bindings:Perm_binding.t list ->
  program:Sral.Ast.t ->
  time:Temporal.Q.t ->
  unit ->
  unit
(** Recompute Eq. 3.1's [active(perm, ·)] for every binding at the
    given time — call at arrival/role-activation events so validity
    durations start burning when the permission becomes active, not
    when it is first exercised. *)

val refresh_activation_lazy :
  ?companions:Monitor.t list ->
  session:Rbac.Session.t ->
  monitor:Monitor.t ->
  bindings:Perm_binding.t list ->
  team_version:int ->
  program:Sral.Ast.t ->
  time:Temporal.Q.t ->
  unit ->
  unit
(** {!refresh_activation} through the lazy machinery: same activation
    flips and clock movement, computed from residual feasibility
    instead of a fresh DFA per history-scope binding. *)

val is_granted : verdict -> bool
val pp_reason : Format.formatter -> reason -> unit
val pp_verdict : Format.formatter -> verdict -> unit

val validity_dc_check :
  monitor:Monitor.t ->
  binding:Perm_binding.t ->
  time:Temporal.Q.t ->
  bool
(** Theorem 4.1, checked through the duration-calculus route: build the
    DC constraint [∫valid ≤ dur] and decide it with
    {!Temporal.Duration_calculus.sat} over [[t_b, t]].  Must agree with
    the step-function route used by {!decide_naive} (property-tested). *)
