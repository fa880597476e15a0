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

type reason = Obs.Verdict.reason =
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

type verdict = Obs.Verdict.t = Granted | Denied of reason

val program_state_budget : int
(** The {!Srac.Program_sat.check} budget of every Program-scope check:
    a program whose trace NFA or DFA would exceed it fails the check —
    denied with a [Spatial_violation] naming the budget, and inactive. *)

val decide_naive :
  ?companions:Monitor.t list ->
  bus:Obs.Bus.t ->
  session:Rbac.Session.t ->
  monitor:Monitor.t ->
  bindings:Perm_binding.t list ->
  outcomes:Residual.Program_outcomes.t ->
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
    the first two pass.  Program-scope outcomes are read from (and
    added to) [outcomes], the table a system shares with its clones:
    [check(P, C)] depends on the program and the binding, not on the
    object.  On a bus with no sink ({!Obs.Bus.observed} is
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
  outcomes:Residual.Program_outcomes.t ->
  program:Sral.Ast.t ->
  time:Temporal.Q.t ->
  Sral.Access.t ->
  verdict
(** The fast path.  [applicable] is the pre-filtered binding list (from
    {!Binding_index.applicable}), in binding-store insertion order —
    the caller is trusted to pass exactly the bindings {!decide_naive} would
    have selected.  [team_version] stamps the identity and order of
    [companions]: the companion list must be the same on every call
    with a given [team_version], so it must change whenever they do
    ({!System} bumps it on every {!System.join_team}).

    Observationally identical to {!decide_naive} on the same inputs —
    verdicts, denial strings, stage spans, monitor clock and activation
    movement — but evaluates history-scope spatial constraints
    incrementally: each binding owns a {!Srac.Lazy_dfa} machine in the
    monitor's {!Residual} store, a cursor folds newly performed
    accesses into the residual state, and the grant / activation
    answers are memoized per-state nullability / feasibility bits.
    [Team]-scope bindings refold the team's time-merged history from
    the start whenever [team_version] or the team's proof total (the
    monitor's and its companions' {!Monitor.history_epoch}s summed)
    moves: proof counts only grow and the companions are fixed for a
    [team_version], so an unchanged total means no member recorded a
    proof.  A [team_version] move also starts a fresh machine, so a
    former companion's accesses leave the feasibility alphabet with
    its proofs.  A binding whose machine reaches
    {!Srac.Lazy_dfa.State_limit} is answered by the eager oracles from
    then on.  The RBAC stage reads the policy's compiled table
    ({!Rbac.Engine.decide_compiled}), so the monitor keeps nothing per
    requested access; each binding's role check is one bit in its slot,
    stamped by {!Rbac.Session.version}.  The three stage spans
    are emitted exactly as the naive path emits them, but the spatial
    stage stops at the first failing binding.  On an unobserved bus the
    warm path performs zero allocation (benchmarked in E22,
    differentially fuzzed in [test/test_fuzz.ml]). *)

val refresh_activation :
  ?companions:Monitor.t list ->
  session:Rbac.Session.t ->
  monitor:Monitor.t ->
  bindings:Perm_binding.t list ->
  outcomes:Residual.Program_outcomes.t ->
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
  outcomes:Residual.Program_outcomes.t ->
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
