(** Simulation metrics: one world's own counters.

    Each {!World} (and {!World_legacy}) owns one accumulator and fills
    it where it acts: every event the world emits goes through {!record}
    on its way to the bus, and each verdict the world asks for goes
    through {!record_verdict} at the decision site.  No sink is
    subscribed, so the counts cover what this world did and nothing
    else: a [Decision] that another caller publishes on the same control
    about one of this world's agent ids is not counted, and a later
    world run on the same control leaves a finished world's counts
    where they were.  (Administrative [at] actions add bindings, spawn
    agents, halt worlds or change roles; none of them decides.) *)

type t = {
  mutable granted : int;
  mutable denied : int;
  mutable denied_rbac : int;
  mutable denied_spatial : int;
  mutable denied_temporal : int;
  mutable denied_unavailable : int;
      (** fail-closed denials against crashed/stale servers *)
  mutable migrations : int;
  mutable messages : int;  (** channel sends *)
  mutable signals : int;
  mutable completed_agents : int;
  mutable aborted_agents : int;
  mutable deadlocked_agents : int;
  mutable faults_injected : int;
  mutable retries : int;  (** migration retries scheduled *)
  mutable gave_up : int;  (** retry budgets exhausted *)
  mutable end_time : Temporal.Q.t;
}

val create : unit -> t
val total_accesses : t -> int

val grant_rate : t -> float option
(** [granted / (granted + denied)], or [None] when the run performed no
    accesses — there is no rate to report, and the seed's [1.0] read as
    "everything granted".  {!pp} prints it as ["n/a"]. *)

val record_verdict : t -> Obs.Verdict.t -> unit
(** Count one verdict: [granted], or [denied] plus its reason's bucket
    (RBAC, spatial, temporal — expiry, inactive or not arrived — or
    unavailable). *)

val record : t -> Obs.Trace.event -> unit
(** Count one trace event, unfiltered: a [Decision] through
    {!record_verdict}, migrations, messages, signals, agent
    terminations, faults, retries, gave-ups, and [Run_finished] (which
    sets [end_time]); every other event is ignored.  Folding the trace
    captured from a control that one world had to itself rebuilds that
    world's counters. *)

val pp : Format.formatter -> t -> unit
