(** The coalition world: servers, agents and the simulation loop.

    Deterministic discrete-event emulation of mobile computing: agents
    execute their SRAL programs; an access targeting another server
    first migrates the agent (costing [migration_latency]); every
    access passes through the {!Security_manager}; channels and signals
    synchronize agents.  Time is continuous (ℚ); runs with the same
    inputs are bit-identical. *)

type deny_policy =
  | Skip_access  (** denied access is skipped; the agent continues *)
  | Abort_agent  (** denial kills the agent (a SecurityException) *)

type config = {
  migration_latency : Temporal.Q.t;
  step_cost : Temporal.Q.t;  (** cost of one silent machine step *)
  deny_policy : deny_policy;
  fuel : int;  (** silent-step divergence bound per scheduling slot *)
  max_events : int;  (** simulation-loop safety valve *)
}

val default_config : config
(** migration 5, step 1/100, [Skip_access], fuel 100_000, 1_000_000
    events. *)

type t

val create : ?config:config -> Coordinated.System.t -> t
(** The world publishes its lifecycle events (spawns, migrations,
    messages, signals, terminations) on the control's
    {!Coordinated.System.bus} — subscribe an {!Obs.Sink} there to
    record them.  It subscribes nothing itself: its {!Metrics} are
    counted in place as it emits each event and settles each verdict,
    so they see this world's agents only, whatever else shares the
    bus. *)

val manager : t -> Security_manager.t

val set_faults : ?resilience:Fault.Resilience.t -> t -> Fault.Injector.t -> unit
(** Install deterministic chaos (call before {!run}):

    - the {!Security_manager} fails {e closed} against the injector's
      crash schedule — an access targeting a down server is denied with
      [Server_unavailable], on the audit record, never skipped;
    - crash-window boundaries are published as
      [Server_down]/[Server_up] bus events;
    - a migration to a crashed server, or one the injector faults, is
      retried under [resilience] (capped exponential backoff with
      deterministic jitter), emitting [Fault_injected] and
      [Retry_scheduled]; an exhausted budget emits [Gave_up] and the
      fail-closed denial;
    - agents located on a crashed server are suspended until recovery;
    - channel sends can be dropped, delayed or duplicated and signals
      lost, per the plan's probabilities; a blocked receive is
      abandoned after [resilience.recv_timeout] (if set).

    Identical [(plan, seed, world)] inputs replay bit-identically. *)

val set_appraisal : t -> Appraisal.t -> unit
(** Install a state appraisal (related work's Farmer et al. mechanism):
    every agent is appraised at dispatch and at each migration arrival;
    a corrupted agent is aborted before requesting any access. *)

val add_server : t -> Server.t -> unit
val server : t -> string -> Server.t option

val servers : t -> Server.t list
(** Registered servers in id (registration) order — a cached indexed
    walk over the struct-of-arrays server table; nothing is rebuilt or
    re-sorted per call, and the order is stable across later
    {!add_server} calls (existing prefix unchanged). *)

val spawn :
  ?team:string ->
  t ->
  id:string ->
  owner:string ->
  roles:string list ->
  home:string ->
  Sral.Ast.t ->
  unit
(** Dispatch an agent: authenticate at its home server (arrival at the
    current clock) and schedule its first step.  [team] makes the
    agent a member of a naplet team, whose execution proofs are shared
    by bindings with [Team] proof scope.
    @raise Invalid_argument on duplicate id or unknown home server. *)

val at : t -> time:Temporal.Q.t -> (unit -> unit) -> unit
(** Schedule an administrative action at a simulated time — e.g.
    deactivating a role in some agent's session, revoking a grant, or
    installing a new binding.  Runs between agent steps; use it to
    model the security officer intervening mid-journey. *)

val run : t -> Metrics.t
(** Drive the event loop to quiescence.  Agents still [Waiting] at the
    end are counted as deadlocked.  Returns {!metrics}: this world's own
    counts, kept where it acts rather than read off the control's bus,
    so a later world run on the same control does not move them. *)

val halt : t -> unit
(** Tear the world down early: every pending event is discarded, and
    the world drops its references to pending {!at} actions, which
    never run.  {!run} then winds down at the current clock.  Usable
    from an {!at}
    action as a kill switch (e.g. when a chaos run decides the
    coalition is lost). *)

val pending_events : t -> int
(** Events still queued in the simulator ([0] after {!halt} or a
    completed {!run}). *)

val processed_events : t -> int
(** Simulation events the {!run} loop has executed so far — the E19
    throughput benchmarks report events per second from this. *)

val clock : t -> Temporal.Q.t

val agent : t -> string -> Agent.t option
(** O(1): an interned-id lookup into the state columns.  The returned
    record is a read-only view synthesized from the agent's row — its
    [machine] is shared with the live agent, its [status]/[location]
    are a snapshot at call time. *)

val agents : t -> Agent.t list
(** All agents as {!agent}-style views, in id (spawn) order — an
    indexed walk, no sort; the order is stable across later {!spawn}s
    (existing prefix unchanged). *)

val metrics : t -> Metrics.t
(** This world's own counters (see {!Metrics}): its verdicts and the
    events it emitted, nothing another world or caller published on the
    shared control. *)

val channels : t -> Channel.t

