(** Facade: a coordinated spatio-temporal access-control system.

    Wires the RBAC policy, the spatio-temporal bindings, the per-object
    monitors and the trace bus into the single object a server (or the
    Naplet emulation's security manager) consults.  Nothing is recorded
    unless a caller subscribes a sink to the {!bus} — an
    {!Audit_log.attach}ed log, a capture, a stats accumulator.

    Two decision modes share one observable behavior:

    - [Lazy] (the default) resolves applicable bindings through
      {!Binding_index}, looks companions up in precomputed team
      rosters, and evaluates history-scope spatial constraints
      incrementally as memoized Brzozowski-derivative residuals
      ({!Decision.decide_lazy} over {!Srac.Lazy_dfa}).
    - [Naive] is the seed's linear path — full binding scan, companion
      fold over every object, history-scope constraints rechecked from
      scratch on every decision —
      kept as the differential oracle and the E13 baseline.

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
    clone, so no mutable decision state (monitors, residual caches,
    rosters, sinks) is ever shared between domains.  The shared policy
    must not be mutated while clones are live on other domains —
    concurrent {e reads} of an unmutated policy are safe. *)

val of_policy_text : ?mode:decision_mode -> string -> t
(** Build from {!Policy_lang} text.  @raise Policy_lang.Error *)

val policy : t -> Rbac.Policy.t
val mode : t -> decision_mode

val bindings : t -> Perm_binding.t list
(** In insertion order. *)

val add_binding : t -> Perm_binding.t -> unit
(** Amortized O(1) append (the seed rebuilt the whole list per add). *)

val applicable_bindings : t -> Sral.Access.t -> Perm_binding.t list
(** The bindings {!check} consults for this access, in insertion order
    — resolved through the index.  Exposed for tests and tooling. *)

val bus : t -> Obs.Bus.t
(** The system's trace bus.  {!check} emits per-stage span events and
    one {!Obs.Trace.Decision} per decision on it;
    {!arrive} emits {!Obs.Trace.Arrival}.  Subscribe sinks here to
    observe (or record) everything the system does; while the bus has
    no sink, no event is built. *)

val monitor : t -> object_id:string -> Monitor.t
(** The monitor for a mobile object, created on first use. *)

val join_team : t -> object_id:string -> team:string -> unit
(** Make the object a member of the named team; bindings with [Team]
    proof scope then consult every member's execution proofs (the
    introduction's "companions").  An object is in at most one team
    (re-joining moves it). *)

val team_of : t -> object_id:string -> string option
val teammates : t -> object_id:string -> string list
(** Other members of the object's team, sorted.  O(|team|) via the
    precomputed roster. *)

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
    the proof, Section 2). *)

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
