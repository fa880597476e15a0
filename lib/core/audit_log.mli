(** Audit log of coordinated access-control decisions.

    The log is an opt-in {e sink} over the observability bus: it has no
    recording wiring of its own.  {!Coordinated.System.check} emits an
    {!Obs.Trace.Decision} event, and a log {!attach}ed to the system's
    bus turns it into an entry.  A system with no log attached builds
    no such event.  ({!record} remains public for building logs by hand
    in tests.)

    The log keeps every entry.  {!size} and {!granted_count} are
    maintained at {!record} time, O(1) per query. *)

type entry = {
  time : Temporal.Q.t;
  object_id : string;
  access : Sral.Access.t;
  verdict : Decision.verdict;
}

type t

val create : unit -> t
val record : t -> entry -> unit

val entries : t -> entry list
(** In record order. *)

val size : t -> int
(** Number of recorded decisions, O(1). *)

val granted_count : t -> int
(** Granted decisions, O(1). *)

val denied_count : t -> int
(** Denied decisions, O(1). *)

val granted : t -> entry list
(** Granted entries, in record order. *)

val denied : t -> entry list

val grant_rate : t -> float
(** granted/size.  NaN-free: 1.0 on an empty log. *)

val by_object : t -> string -> entry list
(** Entries concerning the object. *)

val by_server : t -> string -> entry list

val sink : t -> Obs.Sink.t
(** The log as a trace-bus subscriber: records one entry per
    {!Obs.Trace.Decision} event and ignores every other variant. *)

val attach : Obs.Bus.t -> t
(** A fresh log subscribed to the bus: it records every decision
    published there from now on. *)

val pp_entry : Format.formatter -> entry -> unit
val pp : Format.formatter -> t -> unit
