(** Discrete-event simulation core: a priority queue of timed events
    over continuous (rational) time.

    Ties are broken by insertion order, so runs are deterministic.

    {b Layout.}  Payloads are [int]s: a caller that needs richer events
    keeps them in its own table and schedules their handles.  The
    queue is a binary min-heap over the {e distinct} pending times;
    each time owns a FIFO bucket of payloads in schedule order.  A
    schedule at a time that is already pending appends to its bucket,
    and a pop that leaves its bucket non-empty only advances the
    bucket's head, so both cost O(1); only the first schedule and the
    last pop of a time sift the heap.  A time finds its bucket through
    a direct-mapped index of at most 4,096 entries; a collision only
    opens one more bucket for the evicted time.  Heap entries, bucket
    links and the index are all flat [int array]s, so scheduling and
    popping neither allocate nor run the write barrier.  A pop
    allocates only {!now}'s value, and only when the popped time
    differs from the previous pop's.  Storage past a 16-entry minimum
    is released when the queue empties.

    {b FIFO at equal times.}  Two events scheduled at equal times pop
    in schedule order, however many pops, collisions or {!clear}s lie
    between the two schedules.  Within a bucket this is its list
    order.  Across buckets of one time (a time whose index entry was
    evicted while its bucket was still pending opens a second one)
    the heap orders equal times by the buckets' creation numbers,
    which only ever increase for the lifetime of the queue and are not
    reset by {!pop} or {!clear}; only the newest bucket of a time ever
    takes new entries. *)

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
(** Discard all pending events; [size] returns to [0].  As when the
    queue empties by popping, storage past the 16-entry minimum is
    released, so a queue that peaked at millions of entries does not
    pin that storage after the run.  Events scheduled after a [clear]
    still pop FIFO at equal times (see the header note). *)
