(** Full event log of a world run — every agent lifecycle step, not
    just access decisions (those live in the coordinated audit log).
    The log is what Naplet's "mechanisms for agent monitoring" boil
    down to: a deterministic, timestamped record a run can be replayed
    and debugged from.

    The log is a {e sink} over the observability bus ({!sink}): the
    world emits {!Obs.Trace} events and the sink translates the
    agent-facing subset into {!kind}s; only {!record} appends.  [size]
    is O(1) (a maintained counter) and {!for_agent}/{!count} fold over
    the raw store without building intermediate lists. *)

type kind =
  | Spawned of { home : string }
  | Migrated of { from_ : string; to_ : string }
  | Access_granted of Sral.Access.t
  | Access_denied of Sral.Access.t * string  (** reason *)
  | Message_sent of string  (** channel *)
  | Message_received of string
  | Signal_raised of string
  | Completed
  | Aborted of string
  | Deadlocked
  | Fault of { fault : string; target : string }
      (** an injected fault ({!Obs.Trace.fault_name}) and what it hit *)
  | Retry of { attempt : int; at : Temporal.Q.t }
  | Gave_up of { attempts : int }

type event = { time : Temporal.Q.t; agent : string; kind : kind }

type t

val create : unit -> t
val record : t -> time:Temporal.Q.t -> agent:string -> kind -> unit
val events : t -> event list
(** In record order. *)

val for_agent : t -> string -> event list
(** The agent's events in record order — one fold over the store, no
    intermediate lists. *)

val size : t -> int
(** Number of recorded events, O(1). *)

val count : t -> (kind -> bool) -> int
(** Events whose kind satisfies the predicate — a counting fold, no
    intermediate lists. *)

val sink : ?relevant:(string -> bool) -> t -> Obs.Sink.t
(** The log as a trace-bus subscriber.  Translates agent-lifecycle
    events ([Spawned], [Migrated], [Decision] → granted/denied,
    channel/signal traffic, terminations) into entries; decision-stage
    spans, arrivals, role rejections and run bookkeeping
    are ignored (they are not agent lifecycle).  [relevant] filters by
    agent/object id (default: keep all) — {!World} passes a membership
    test over its own agent table so a shared control's foreign
    decisions don't leak into this world's log. *)

val pp_kind : Format.formatter -> kind -> unit
val pp_event : Format.formatter -> event -> unit
val pp : Format.formatter -> t -> unit
