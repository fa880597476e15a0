(** Facade: a coordinated spatio-temporal access-control system.

    Wires the RBAC policy, the spatio-temporal bindings, the per-object
    monitors and the trace bus into the single object a server (or the
    Naplet emulation's security manager) consults.  Nothing is recorded
    unless a caller subscribes a sink to the {!bus} — an
    {!Audit_log.attach}ed log, a capture, a stats accumulator.

    Two decision modes share one observable behavior:

    - [Lazy] (the default) takes the applicable bindings from
      {!Binding_index}'s per-access memo, the companions' monitors
      from a list cached on the object's own monitor and stamped with
      the team-membership version, and evaluates history-scope
      spatial constraints incrementally as memoized
      Brzozowski-derivative residuals
      ({!Decision.decide_lazy} over {!Srac.Lazy_dfa}).
    - [Naive] is the seed's linear path — full binding scan, companion
      fold over every object, history-scope constraints rechecked from
      scratch on every decision —
      kept as the differential oracle and the E13 baseline.

    Both modes read Program-scope outcomes from one table per base
    system, shared with every {!clone} (see {!program_outcomes}).

    The differential fuzz suite ([test/test_fuzz.ml]) checks that both
    modes produce identical verdicts (including denial reasons),
    identical audit logs and identical trace spans on randomized
    coalitions. *)

type t

type decision_mode = Naive | Lazy

val create :
  ?mode:decision_mode ->
  ?bindings:Perm_binding.t list ->
  ?bus:Obs.Bus.t ->
  Rbac.Policy.t ->
  t
(** [bus] is the observability spine the system publishes on (default:
    a fresh bus with the deterministic null clock and no sink); pass a
    bus built with a monotonic clock to give decision spans real
    durations.  Creation subscribes nothing. *)

val clone : t -> t
(** A pristine replica: same decision mode, same bindings (copied into
    a fresh index), the {e same} policy object, but fresh monitors,
    teams and a fresh sink-less bus.  This is the shard-safe entry point the
    parallel engine uses: each OCaml 5 domain decides against its own
    clone, so no per-object decision state (monitors, residual caches,
    rosters, sinks) is ever shared between domains.  The shared policy
    must not be mutated while clones are live on other domains —
    concurrent {e reads} of an unmutated policy are safe.

    The one thing a clone shares with its base (and every other clone)
    is the table of Program-scope outcomes, one per (binding, program):
    [check(P, C)] is a fact about the program and the constraint, so an
    object registering a program some other connection or replica
    already checked reuses that outcome.  The table is an immutable map
    published through [Atomic], safe to read and extend from any
    domain without a lock ({!Residual.Program_outcomes}). *)

val of_policy_text : ?mode:decision_mode -> string -> t
(** Build from {!Policy_lang} text.  @raise Policy_lang.Error *)

val policy : t -> Rbac.Policy.t
val mode : t -> decision_mode

val bindings : t -> Perm_binding.t list
(** In insertion order. *)

val add_binding : t -> Perm_binding.t -> unit
(** Append; drops the index's per-access memo. *)

val program_outcomes : t -> int
(** Entries in the Program-scope outcome table the system shares with
    its clones: one per (binding, program) checked so far, with
    programs compared structurally.  The table starts over at
    {!Residual.Program_outcomes.cap} entries, so this never exceeds
    it.  A read-only gauge for tests and tooling. *)

val bus : t -> Obs.Bus.t
(** The system's trace bus.  {!check} emits per-stage span events and
    one {!Obs.Trace.Decision} per decision on it;
    {!arrive} emits {!Obs.Trace.Arrival}.  Subscribe sinks here to
    observe (or record) everything the system does; while the bus has
    no sink, no event is built. *)

val monitor : t -> object_id:string -> Monitor.t
(** The monitor for a mobile object, created on first use.  A system
    never removes or replaces a monitor it has created, so a caller may
    keep the one returned here as the object's handle for the life of
    the system and decide through it with {!check_monitor}: the
    emulation's [World] fetches each agent's monitor once at spawn, and
    the service's [Server] once per [Register]. *)

val join_team : t -> object_id:string -> team:string -> unit
(** Make the object a member of the named team; bindings with [Team]
    proof scope then consult every member's execution proofs (the
    introduction's "companions").  An object is in at most one team
    (re-joining moves it). *)

val team_of : t -> object_id:string -> string option
val teammates : t -> object_id:string -> string list
(** Other members of the object's team, sorted.  O(|team|) via the
    precomputed roster.  [Lazy]-mode checks read the same members'
    monitors from a list cached on the object's own monitor
    ({!Monitor.companions}), stamped with the membership version that
    {!join_team} bumps; an object in no team caches [[]] the same
    way. *)

val new_session : t -> user:string -> Rbac.Session.t

val check :
  t ->
  session:Rbac.Session.t ->
  object_id:string ->
  program:Sral.Ast.t ->
  time:Temporal.Q.t ->
  Sral.Access.t ->
  Decision.verdict
(** Decide, publish the decision on the {!bus} (where an attached
    audit log records it), and — when granted — record the execution
    proof in the object's monitor (the server "carries out" the access and issues
    the proof, Section 2).  [check t ~object_id] is
    [check_monitor t ~monitor:(monitor t ~object_id)]. *)

val check_monitor :
  t ->
  session:Rbac.Session.t ->
  monitor:Monitor.t ->
  program:Sral.Ast.t ->
  time:Temporal.Q.t ->
  Sral.Access.t ->
  Decision.verdict
(** {!check} for a caller that already holds the object's monitor: no
    lookup by object id.  [monitor] must have come from {!monitor} on
    this same system (not a clone of it, nor one built with
    {!Monitor.create}); the companion list it caches is stamped with
    this system's membership version.  Since monitors are never
    replaced, a handle fetched once stays the object's record, and
    verdicts, published events and recorded proofs are exactly those
    of {!check} with the handle's {!Monitor.object_id}. *)

val arrive :
  t -> object_id:string -> server:string -> time:Temporal.Q.t -> unit
(** Record a migration arrival for the object. *)

val refresh :
  t ->
  session:Rbac.Session.t ->
  object_id:string ->
  program:Sral.Ast.t ->
  time:Temporal.Q.t ->
  unit
(** Recompute every binding's Eq. 3.1 activation state for the object —
    call after arrival/role activation so validity durations accrue
    from the moment permissions become active. *)
