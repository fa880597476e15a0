(** The trace bus: a synchronous, typed fan-out point.

    Emitters ({!Coordinated.System}, {!Coordinated.Decision},
    {!Naplet.World}, …) publish {!Trace.event}s; sinks (the audit log,
    the metrics accumulator, {!Stats}, a memory capture)
    receive every event in subscription order.  Emission is synchronous
    and deterministic: no queue, no thread, no reordering — emitting is
    exactly a fold over the subscribed handlers.

    The [clock] supplies host-time nanoseconds for
    {!Trace.Stage_end.elapsed_ns} spans.  It defaults to the null clock
    (always [0]) so that traces are bit-reproducible by default;
    benchmarks inject a monotonic clock to measure real per-stage
    latency. *)

type t

val create : ?clock:(unit -> int64) -> unit -> t
(** [clock] defaults to {!null_clock}. *)

val null_clock : unit -> int64
(** Always [0L] — keeps span durations, and therefore whole traces,
    deterministic. *)

val subscribe : t -> Sink.t -> unit
(** Append a sink; it receives every subsequently emitted event. *)

val emit : t -> Trace.event -> unit
(** Deliver the event to every sink, in subscription order. *)

val now_ns : t -> int64
(** Read the bus clock (for span measurement by emitters). *)

val emitted : t -> int
(** Lifetime number of emitted events. *)

val sinks : t -> string list
(** Names of the subscribed sinks, in subscription order. *)
