(** The decision server core: connections in, reply bytes out.

    A pure state machine over byte strings — it owns no socket, no
    clock and no thread, which is what lets one core serve both the
    in-process replay ({!Script.run_sim}) and the real Unix-socket
    backend ({!Net_unix}) with bit-identical behavior.

    Each connection decides against its own {!Coordinated.System.clone}
    of the base system (a connection is an isolated coalition, exactly
    the shard isolation the parallel engine relies on), and request [i]
    on a connection executes at ℚ time [i] — a per-connection logical
    clock, so a connection's verdict stream depends only on its own
    request order, never on transport timing or on other connections.

    Failure policy is {e closed}:
    - a framing error or an undecodable payload yields one [Rejected]
      reply, an [Aborted] trace event, and kills the connection — no
      later bytes from a peer that has already sent garbage are
      trusted;
    - frames beyond [queue_capacity] in a single {!feed} are shed
      unexecuted, each with a [Shed] reply and an [Aborted] trace event
      (reason ["overload-shed"]) so load shedding is auditable.

    Each direct reply (every reply but [Event]) is counted once: a
    [Shed] by {!shed}, the [Rejected] of a kill by {!malformed}, any
    other by {!executed}.  A harness that sends only well-formed frames
    can so read what a feed did from the counters, without decoding its
    replies. *)

type config = {
  queue_capacity : int;
      (** max frames executed per {!feed} call; the rest shed *)
}

val default_config : config
(** 256 frames.  Every connection frames with
    {!Frame.max_frame_default}. *)

type t

val create : ?config:config -> base:Coordinated.System.t -> unit -> t
(** The base system is cloned per connection, decision mode included;
    its policy object is shared (and must not be mutated while the
    server is live). *)

val open_conn : t -> int
(** A fresh connection id.  The clone's trace bus has no sink until the
    connection's first [Subscribe] executes, which subscribes a capture
    sink; events stream from that moment on, and a repeated [Subscribe]
    changes nothing. *)

val close_conn : t -> conn:int -> unit

val conn_alive : t -> conn:int -> bool
(** [false] once the connection was killed fail-closed (or closed). *)

val feed : t -> conn:int -> string -> string
(** Push raw bytes from the connection; returns the raw reply bytes to
    send back (zero or more frames — replies to every frame completed
    by these bytes, with any subscribed trace events interleaved
    {e before} the reply of the request that caused them).  Unknown or
    dead connections produce [""].

    One pass: all the bytes go into the connection's decoder first,
    then each completed frame is decoded in place, straight out of the
    decoder's buffer ({!Frame.Decoder.advance},
    {!Protocol.decode_request_in} through the server's {!programs}
    memo), and run as it is drained.  Its
    reply, with the events it caused, is written once into the
    connection's output buffer: {!Protocol.write_reply} fills a reused
    per-connection payload buffer and {!Frame.add_frame} appends the
    length prefix and the payload, so no intermediate reply string is
    built.  The only string a feed makes of its replies is the one it
    returns.  The frame at index [i] of this feed is shed when
    [i >= queue_capacity], undecoded; a framing error or an undecodable
    payload within the capacity kills the connection, and the frames
    after it are not run.  The output buffer is emptied before [feed]
    returns, so an idle connection holds no reply bytes. *)

val feed_batch : t -> (int * string) list -> (int * string) list
(** [feed] for several connections at once, fanned out across domains
    with {!Parallel.Backend.parallel} (connections are isolated clones,
    so this is the same shard-safety argument as the parallel engine).
    Byte chunks for the same connection keep their list order; the
    result has one [(conn, reply_bytes)] entry per distinct connection,
    in first-appearance order. *)

val programs : t -> Protocol.Programs.t
(** The program memo {!feed} decodes through, shared by every
    connection of the server. *)

val program : t -> conn:int -> object_id:string -> Sral.Ast.t option
(** The program a live connection registered for the object. *)

val executed : t -> int
(** Requests executed over the server's lifetime. *)

val shed : t -> int

val malformed : t -> int
(** Connections killed for framing/decode errors. *)
