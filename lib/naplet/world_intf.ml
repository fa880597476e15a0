(** The world signature, as a first-class module type.

    {!World} and {!World_legacy} expose the same surface; the E19
    differential harness ([Scenarios.Scale_family]) is a functor over
    this signature so the identical coalition-building code drives
    both engines and their exported traces can be compared byte for
    byte.

    Written out structurally (not [module type of World]) so both
    engines' nominal types match it — [module type of] through the
    library alias would pin every type to {!World}'s. *)

module type S = sig
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

  val set_faults :
    ?resilience:Fault.Resilience.t -> t -> Fault.Injector.t -> unit

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
end
