(** Deterministic in-process transport: the service under a virtual
    clock.

    Frames travel through a {!Naplet.Sim} event queue instead of a
    socket, with per-message delays, drops and duplicates decided by
    the {e stateless} keyed hash of {!Fault.Prng} — so a whole
    client/server exchange, including its failure pattern, replays
    bit-identically from [(policy, script)] alone.  This is the rscoin
    emulation-layer shape: test the daemon's behavior deterministically
    in-process before any real socket is involved.

    Per-direction FIFO is preserved (a late frame never overtakes an
    earlier one on the same connection and direction), matching what
    TCP provides, so the server's per-connection request order — the
    only thing its verdict stream depends on — is a function of the
    send order alone. *)

type policy = {
  seed : int;
  base_delay : Temporal.Q.t;  (** fixed per-hop latency *)
  jitter : Temporal.Q.t;  (** keyed-uniform extra, quantized to 1/1024 *)
  drop : float;  (** per-frame drop probability, both directions *)
  duplicate : float;  (** per-frame duplication probability *)
}

val reliable : policy
(** No loss, no jitter, delay 1/100 — the differential-gate policy. *)

val lossy : seed:int -> policy
(** 5% drop, 5% duplicate, jitter up to 1/2. *)

type t

val create : ?policy:policy -> server:Server.t -> unit -> t
val connect : t -> int
(** Open a server connection, returning its id. *)

val send_at : t -> time:Temporal.Q.t -> conn:int -> Protocol.request -> unit
(** Schedule an encoded request frame for transmission. *)

val send_raw_at : t -> time:Temporal.Q.t -> conn:int -> string -> unit
(** Schedule raw bytes (adversarial tests: bad frames, half frames). *)

val run : t -> unit
(** Deliver everything until the queue drains. *)

val now : t -> Temporal.Q.t
(** Virtual time of the last delivery. *)

val replies : t -> conn:int -> Protocol.reply list
(** Decoded replies received by the client side, in arrival order.
    Undecodable reply bytes raise [Failure] — the server never emits
    them, so this is a harness assertion, not a recoverable state. *)

