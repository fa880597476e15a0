(** Simulation metrics.

    The accumulator is a {e sink} over the observability bus
    ({!sink}): the world and the coordinated system publish events and
    the sink folds them into counters — there is no direct mutation
    left in the simulation loop. *)

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

val sink : ?relevant:(string -> bool) -> t -> Obs.Sink.t
(** The accumulator as a trace-bus subscriber: decisions (with
    per-reason denial breakdown), migrations, messages, signals, agent
    terminations and [Run_finished] (which sets [end_time]).
    [relevant] filters by agent/object id (default: keep all) —
    {!World} passes a membership test over its own agent table so a
    shared control's foreign decisions don't leak into its counts. *)

val pp : Format.formatter -> t -> unit
