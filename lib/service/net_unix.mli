(** The real transport: the server core behind a Unix-domain or TCP
    listener.

    Single-threaded and select-driven.  {!step} is one bounded pump of
    the event loop (accept, read, decide via {!Server.feed_batch},
    write back), exposed separately from {!serve} so tests can
    interleave client and server turns deterministically in one
    process.  All protocol semantics — logical clocks, fail-closed
    kills, shedding — live in {!Server}; this module only moves
    bytes. *)

type addr = Unix_path of string | Tcp of int
(** [Tcp port] binds 127.0.0.1. *)

type t

val listen : addr -> t
(** Bind and listen.  An existing socket file at a [Unix_path] is
    removed first.  Sets SIGPIPE to ignored for the whole process, so a
    peer that hangs up shows as a failed write, not a fatal signal.
    @raise Unix.Unix_error *)

val step : t -> server:Server.t -> timeout:float -> int
(** One pump: wait up to [timeout] seconds for readiness, accept any
    pending connections, read every ready peer, feed the server, write
    replies.  Returns the number of peers that produced bytes.  Peers
    whose connection died fail-closed are disconnected after their
    replies are flushed.  A peer at EOF, or whose read or write fails
    with any [Unix_error] ([EAGAIN]/[EINTR] on read aside, which mean
    no data yet), is disconnected the same way: replies are never
    queued, so a reader that never drains its socket is disconnected
    once a write to it would block.  A peer's failure never escapes
    [step]. *)

val serve : t -> server:Server.t -> ?max_requests:int -> unit -> unit
(** Pump until [max_requests] requests have executed (forever when
    omitted). *)

val shutdown : t -> unit
(** Close the listener and every peer; removes a [Unix_path] socket
    file. *)

module Client : sig
  type t

  val connect : addr -> t
  (** @raise Unix.Unix_error *)

  val send : t -> Protocol.request -> unit

  val drain : t -> Protocol.reply list
  (** Every reply currently available without blocking.
      @raise Failure on undecodable reply bytes. *)

  val request : t -> Protocol.request -> Protocol.reply * Protocol.reply list
  (** Send and block for the direct reply; returns it plus any [Event]
      replies that streamed in before it. *)

  val close : t -> unit
end
