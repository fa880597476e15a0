(** Length-prefixed framing for the wire protocol.

    A frame is a 4-byte big-endian unsigned length followed by exactly
    that many payload bytes.  Framing is the only part of the protocol
    that touches a byte stream; everything above it ({!Protocol}) works
    on complete payloads.

    The decoder is incremental and {e fail-closed}: feeding may be cut
    at any byte boundary (frames reassemble across feeds), but a length
    prefix above the configured ceiling poisons the decoder permanently
    — a malicious or corrupted peer cannot make the server allocate an
    attacker-chosen buffer, and no later bytes on that connection are
    trusted. *)

val max_frame_default : int
(** 1 MiB. *)

val encode : string -> string
(** The payload wrapped in a frame.
    @raise Invalid_argument beyond 2³²−1 bytes. *)

val add_frame : Buffer.t -> Buffer.t -> unit
(** [add_frame out payload] appends [payload]'s frame to [out]: the
    same bytes as [Buffer.add_string out (encode (Buffer.contents
    payload))], with no intermediate string.
    @raise Invalid_argument beyond 2³²−1 bytes. *)

module Decoder : sig
  type t

  val create : ?max_frame:int -> unit -> t
  (** [max_frame] defaults to {!max_frame_default}. *)

  val feed : t -> string -> unit
  (** Append raw bytes (any split; ignored once poisoned). *)

  type step =
    | Payload  (** a payload was consumed; read it in place *)
    | Await  (** more bytes are needed *)
    | Poisoned of string
        (** a length prefix exceeded [max_frame]; every later call
            returns the same error *)

  val advance : t -> step
  (** Consume the next complete payload in place, allocating nothing
      when it returns [Payload] or [Await].  After [Payload], the
      payload is the {!payload_len} bytes of {!bytes} from
      {!payload_off}.  They stay valid until the next {!feed}, which
      may move or overwrite them. *)

  val bytes : t -> Bytes.t
  (** The decoder's own buffer.  Read it; never write it. *)

  val payload_off : t -> int
  val payload_len : t -> int

  val next : t -> (string option, string) result
  (** {!advance}, with the payload copied out: [Ok (Some payload)],
      [Ok None] when more bytes are needed, or [Error msg] once
      poisoned. *)

  val buffered : t -> int
  (** Unconsumed bytes currently held. *)
end
