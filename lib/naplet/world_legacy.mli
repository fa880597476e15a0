(** The pre-SoA coalition world, kept as the differential oracle for
    {!World}.

    Same contract as {!World} — deterministic discrete-event emulation
    publishing on the control's bus — implemented the old way:
    string-keyed hashtables of agent/server records and closure
    payloads in the event queue.  The E19 harness and the test suite
    replay randomized coalitions through both engines and require
    byte-identical exported traces; this module exists only to anchor
    that comparison and will be deleted once the SoA engine has
    soaked.  See {!World} for the per-function documentation. *)

type deny_policy = Skip_access | Abort_agent

type config = {
  migration_latency : Temporal.Q.t;
  step_cost : Temporal.Q.t;
  deny_policy : deny_policy;
  fuel : int;
  max_events : int;
}

val default_config : config

type t

val create : ?config:config -> Coordinated.System.t -> t
val manager : t -> Security_manager.t
val set_faults : ?resilience:Fault.Resilience.t -> t -> Fault.Injector.t -> unit
val set_appraisal : t -> Appraisal.t -> unit
val add_server : t -> Server.t -> unit
val server : t -> string -> Server.t option
val servers : t -> Server.t list

val spawn :
  ?team:string ->
  t ->
  id:string ->
  owner:string ->
  roles:string list ->
  home:string ->
  Sral.Ast.t ->
  unit

val at : t -> time:Temporal.Q.t -> (unit -> unit) -> unit
val run : t -> Metrics.t
val halt : t -> unit
val pending_events : t -> int
val processed_events : t -> int
val clock : t -> Temporal.Q.t
val agent : t -> string -> Agent.t option
val agents : t -> Agent.t list
val metrics : t -> Metrics.t
val channels : t -> Channel.t
