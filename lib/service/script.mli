(** Seeded request scripts and the differential gate.

    A script is a global send-order list of [(connection, request)]
    pairs, generated from a seed against the one fixed {!base_system}.
    The same script can be driven two ways:

    - {!run_sim}: through the full stack — request encoding, framing,
      {!Server}, reply decoding — feeding each request's frame to
      {!Server.feed} in script order and collecting each connection's
      decoded replies;
    - {!drive_direct}: through an independent re-implementation of the
      per-request semantics straight on {!Coordinated.System} clones,
      with no framing and no transport.

    The acceptance gate is that both produce byte-identical reply
    streams ({!render}), proving the service layer adds nothing to —
    and loses nothing from — the decision semantics, and that two
    {!run_sim} runs of one script are bit-reproducible. *)

type entry = { conn : int; req : Protocol.request }

val base_system :
  ?mode:Coordinated.System.decision_mode -> unit -> Coordinated.System.t
(** The fixed service population: {!Parallel.Workload} users, roles,
    grants, assignments and bindings drawn from a pinned generator
    state over servers s1–s3 and resources r1–r3.  Deterministic —
    every call builds the same system. *)

val generate : ?conns:int -> ?requests:int -> seed:int -> unit -> entry list
(** A seeded script: per connection, two object registrations and
    arrivals (connection 0 also subscribes), then [requests] more
    requests (~70% checks, the rest arrivals, activations, joins,
    pings, departures, late subscriptions). *)

val run_sim :
  base:Coordinated.System.t -> entry list -> (int * Protocol.reply list) list
(** Replies per connection, in connection order.  No network sits
    between the script and the server: a connection's replies depend
    only on its own request order (see {!Server}), so delivery timing
    could not show in them, and stream sockets neither drop nor
    duplicate frames.
    @raise Failure on reply bytes that do not frame or decode — the
    server never emits them, so this is a harness assertion. *)

val drive_direct :
  base:Coordinated.System.t -> entry list -> (int * Protocol.reply list) list

val render : (int * Protocol.reply list) list -> string
(** The comparison surface: one JSONL line
    [{"conn":N,"reply":{…}}] per reply, connections in order. *)
