(** Discrete-event simulation core: a priority queue of timed events
    over continuous (rational) time.

    Ties are broken by insertion order, so runs are deterministic.

    {b Layout.}  Payloads are [int]s: a caller that needs richer events
    keeps them in its own table and schedules their handles.  Each
    entry is the four ints [(num, den, seq, payload)] — the time's
    normalized numerator and denominator, the insertion sequence
    number and the payload — stored consecutively in one flat
    [int array] that is sifted with a hole.  The heap therefore holds
    no pointers: scheduling and popping never run the write barrier,
    and comparing two entries touches at most two cache lines.  A pop
    allocates nothing when the popped time equals the previous pop's
    (see {!now}).

    {b Sequence monotonicity.}  Every {!schedule} consumes the next
    value of an internal sequence counter that only ever increases for
    the lifetime of the queue — it is {e not} reset by {!pop} or
    {!clear}.  Consequences callers may rely on: two events scheduled
    at equal times pop in schedule order (FIFO), and that remains true
    even when the two schedules straddle a [clear] or any number of
    pops — nothing stale can ever win a tie against a later
    schedule. *)

type t

val create : unit -> t
val schedule : t -> time:Temporal.Q.t -> int -> unit

val pop : t -> int
(** Remove the earliest event and return its payload; its time is
    then {!now}.
    @raise Invalid_argument when the queue is empty. *)

val now : t -> Temporal.Q.t
(** Time of the most recently popped event ([Q.zero] before the first
    pop).  When consecutive pops share a time, [now] returns the same
    value, physically, without allocating. *)

val peek_time : t -> Temporal.Q.t option
val is_empty : t -> bool
val size : t -> int

val clear : t -> unit
(** Discard all pending events; [size] returns to [0].  The backing
    array is released (shrunk whenever occupancy falls below 1/4 of
    capacity, here to empty), so a queue that peaked at millions of
    entries does not pin that storage after the run.  Sequence numbers
    keep increasing (see the header note), so later schedules still
    tie-break FIFO against nothing stale. *)
