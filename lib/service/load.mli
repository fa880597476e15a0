(** The load harness: drive the server core at a controlled rate and
    measure what it actually sustains.

    Requests are pre-encoded [Check] frames (encoding cost is paid up
    front, not on the measured path) spread round-robin over several
    connections of an in-process {!Server} — no socket, so the numbers
    bound the decision service itself, not the kernel's.  Each chunk
    goes through {!Server.feed}, one connection at a time, and the
    completed and shed counts are the changes in {!Server.executed} and
    {!Server.shed}: the harness never decodes a reply.

    Two disciplines:
    - {e closed} loop: one request in flight; per-request service
      latency, the lower bound;
    - {e open} loop: request [i] is {e due} at [i/rate] seconds after
      start.  The requests due at one instant form one chunk per
      connection, fed in order of each connection's first due request,
      and a request's latency runs from its {e due} time, not its send
      time, to the end of its connection's feed — so queueing delay
      under saturation is charged to the server, the way an arrival
      process (and the coordinated-omission literature) demands.
      Requests beyond the server's per-feed capacity are shed and
      counted, never silently retried.

    Latencies land in an {!Obs.Stats.histogram}; quote them with
    {!Obs.Stats.percentile}. *)

type result = {
  offered : float;  (** requests/s asked for; [0.] means closed loop *)
  requests : int;  (** requests sent *)
  completed : int;  (** executed by the server (any non-shed reply) *)
  shed : int;  (** refused with a [Shed] reply; [completed + shed = requests] *)
  elapsed_s : float;
  achieved : float;  (** completed / elapsed *)
  latency : Obs.Stats.histogram;
      (** ns from due time to the end of the feed (in the closed loop,
          the feed's own time), one sample per completed request *)
}

val closed :
  ?conns:int ->
  ?seed:int ->
  base:Coordinated.System.t ->
  requests:int ->
  unit ->
  result

val open_loop :
  ?conns:int ->
  ?seed:int ->
  ?queue:int ->
  base:Coordinated.System.t ->
  requests:int ->
  rate:float ->
  unit ->
  result
(** [queue] is the server's per-feed execution capacity (default
    {!Server.default_config}).
    @raise Invalid_argument unless [rate] is finite and > 0. *)

val sweep :
  ?conns:int ->
  ?seed:int ->
  ?queue:int ->
  base:Coordinated.System.t ->
  requests:int ->
  rates:float list ->
  unit ->
  result list
(** One {!open_loop} run per offered rate, against a fresh server
    each — the saturation sweep E20 reports.
    @raise Invalid_argument before any run unless every rate is finite
    and > 0. *)

val pp_row : Format.formatter -> result -> unit
(** One aligned table row: offered, achieved, completed, shed,
    p50/p95/p99 in µs. *)

val pp_header : Format.formatter -> unit -> unit
