(** The wire protocol: versioned request/reply payloads.

    One {!request} or {!reply} per {!Frame} payload.  The binary codec
    is deterministic (a value always encodes to the same bytes) and
    decoding is total: every byte string maps to [Ok v] or to a typed
    {!error} — never an exception — so a malicious peer can at worst be
    rejected.

    Replies an operator can read instead come from the JSONL debug
    codec ({!reply_to_line}), which reuses
    {!Obs.Export} for verdicts and trace events so service logs and
    trace exports share one JSON dialect.

    Caveat shared with {!Obs.Export}: an access whose operation is a
    {e standard} name under [Custom] (e.g. [Custom "read"]) decodes as
    the standard constructor.  No emitter in this repo produces such
    accesses. *)

val version : int
(** Wire version carried in every payload's first byte; currently 1. *)

type request =
  | Ping  (** liveness probe; answered with [Ack] *)
  | Register of {
      object_id : string;
      owner : string;
      roles : string list;  (** activated best-effort, like scenarios *)
      program : Sral.Ast.t;
    }
  | Arrive of { object_id : string; server : string }
  | Depart of { object_id : string }
      (** forget the object: its session is dropped and later requests
          naming it are rejected *)
  | Check of { object_id : string; access : Sral.Access.t }
  | Activate of { object_id : string; role : string }
  | Join of { object_id : string; team : string }
  | Subscribe
      (** stream this connection's trace events as [Event] replies *)

type reply =
  | Ack of { seq : int }
  | Verdict of { seq : int; verdict : Obs.Verdict.t }
  | Rejected of { seq : int; reason : string }
      (** the request was understood but refused (unknown object,
          unknown user, protocol violation); the connection may also
          have been closed — see {!Server} *)
  | Shed of { seq : int }
      (** dropped by overload control before execution *)
  | Event of Obs.Trace.event

type error =
  | Truncated  (** payload ended mid-field *)
  | Bad_version of int
  | Bad_tag of int
  | Malformed of string
      (** a field failed to parse (program text, ℚ, embedded JSON) or
          trailing bytes followed a complete payload *)

val describe : error -> string

val encode_request : request -> string

(** A bounded memo from a [Register]'s program text to its parsed
    program, which a server shares across its connections and domains
    (a {!Coordinated.Shared_memo}).  Every request that registers the
    same text so gets the same program, physically.  A text longer than
    {!max_text} bytes is parsed and not kept, a text that fails to
    parse is not kept, and the memo starts over when it holds {!cap}
    entries. *)
module Programs : sig
  type t

  val create : unit -> t
  val size : t -> int

  val cap : int
  (** 256 entries. *)

  val max_text : int
  (** 4096 bytes. *)
end

val decode_request : string -> (request, error) result
(** {!decode_request_in} over the whole string, with no memo: a
    [Register]'s program is parsed on every call. *)

val decode_request_in :
  Programs.t -> Bytes.t -> off:int -> len:int -> (request, error) result
(** Decode the [len] bytes of the buffer from [off], in place: a cursor
    walks them, only the request's string fields are copied out, and a
    [Check]'s operation name is matched without building a string.  A
    [Register]'s program is read from the memo, parsed and kept there
    on a miss.  This is how the server reads a payload straight out of
    its {!Frame.Decoder}; such a payload is valid only until the next
    {!Frame.Decoder.feed}, so it must be decoded before then. *)

val write_reply : Buffer.t -> reply -> unit
(** Append a reply's payload (unframed) to the buffer: the bytes
    {!encode_reply} returns, with no intermediate string. *)

val encode_reply : reply -> string
(** {!write_reply} into a fresh buffer. *)

val decode_reply : string -> (reply, error) result

val quote : string -> string
(** Untrusted text for a refusal reason, {!Sral.Clip.quote}:
    [Printf.sprintf "%S" s] when [s] is at most 64 bytes, otherwise its
    first 64 bytes so quoted, then ["... (N bytes)"].  A reply that
    echoes what a peer sent so stays bounded whatever the peer sent. *)

val reply_to_line : reply -> string
(** One JSON object (no newline); verdicts embed
    {!Obs.Export.verdict_to_json}, events embed {!Obs.Export.to_line}. *)
