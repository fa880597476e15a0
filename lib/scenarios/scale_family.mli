(** Million-object coalitions: the E19 scaling builds and the
    SoA-vs-legacy differential harness.

    {!Drive} is a functor over the world signature so the exact same
    coalition-building code drives both {!Naplet.World} (the rebuilt
    struct-of-arrays engine) and {!Naplet.World_legacy} (the pre-SoA
    oracle kept until the new engine has soaked).  [random_run]
    builds, runs and exports one seeded randomized coalition — teams,
    fault plans, a mid-run admin action — and {!divergences} compares
    the two engines' exports byte for byte, and their metrics, over a
    span of seeds.  [build_big] makes the uniform big coalition
    the E19 benchmark times (build phase vs run phase) at 10^3..10^6
    objects. *)

module Drive (W : Naplet.World_intf.S) : sig
  val random_run : salt:int -> seed:int -> unit -> string * Naplet.Metrics.t
  (** Build and run one randomized coalition from [(salt, seed)];
      returns the full bus trace as deterministic JSONL
      ({!Obs.Export.to_string}) and the world's metrics.  Two in three
      coalitions get a seeded fault plan. *)

  val build_big :
    ?config:W.config -> objects:int -> servers:int -> unit -> W.t
  (** The uniform scaling coalition, built but not yet run: [objects]
      agents over [servers] capacity-4 servers under a permissive
      one-role policy, programs shared per-server (two local reads;
      every 100th agent migrates once).  Caller times [W.run]. *)
end

module Soa : sig
  val random_run : salt:int -> seed:int -> unit -> string * Naplet.Metrics.t

  val build_big :
    ?config:Naplet.World.config ->
    objects:int ->
    servers:int ->
    unit ->
    Naplet.World.t
end

module Legacy : sig
  val random_run : salt:int -> seed:int -> unit -> string * Naplet.Metrics.t

  val build_big :
    ?config:Naplet.World_legacy.config ->
    objects:int ->
    servers:int ->
    unit ->
    Naplet.World_legacy.t
end

val divergences : ?salt:int -> runs:int -> int -> int list
(** [divergences ~runs offset] replays seeds
    [offset .. offset + runs - 1] through both engines and returns the
    seeds whose exported traces were not byte-identical or whose
    metrics differ (empty list = conformant). *)
