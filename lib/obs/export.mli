(** Deterministic JSONL serialization of traces.

    One event per line, keys in a fixed order, ℚ timestamps written
    exactly ({!Temporal.Q.to_string}, e.g. ["3/2"]) — so two identical
    runs export byte-identical files, and an exported trace can be
    re-imported for replay assertions.

    The reader inverts the writer: [of_string ∘ to_string] is the
    identity on event lists, and [to_string ∘ of_string ∘ to_string =
    to_string] (export → import → re-export is a fixed point; both
    properties are tested in [test/test_obs.ml]).  The only lossy spot
    is an access written with a {e standard} operation name under
    [Custom] (e.g. [Custom "read"]), which reads back as the standard
    constructor — no emitter in this repo produces such accesses. *)

(** {2 JSON writer}

    The one JSON string escaper and object writer in the repo: the
    trace export, the service's JSONL debug codec, the analyzer report
    and the workflow report all write through these, so every emitter
    escapes the same way. *)

val escape : string -> string
(** [s] escaped for inclusion inside JSON quotes: double quote,
    backslash, newline, carriage return and tab as their two-character
    escapes, other control bytes as [\u00XX], every other byte
    verbatim. *)

val obj : Buffer.t -> (string * (Buffer.t -> unit)) list -> unit
(** Append one JSON object: the fields in list order, each key
    escaped and quoted, each value written by its function. *)

val jstr : string -> Buffer.t -> unit
(** A quoted, escaped string value for {!obj}. *)

val jint : int -> Buffer.t -> unit
val jbool : bool -> Buffer.t -> unit

(** {2 Trace events} *)

val to_line : Trace.event -> string
(** One JSON object, no trailing newline. *)

val of_line : string -> (Trace.event, string) result
(** Errors are ["byte N: …"] with the 0-based offset of the offending
    byte within the line (offset 0 for structural errors discovered
    after parsing, e.g. a missing field). *)

val verdict_to_json : Verdict.t -> string
(** Just the verdict, as the same JSON object a [Decision] event embeds
    under its ["verdict"] key — for codecs (the service wire protocol's
    JSONL debug form) that ship verdicts outside a trace event. *)

val to_string : Trace.event list -> string
(** Newline-terminated lines, concatenated. *)

val of_string : string -> (Trace.event list, string) result
(** Parses a JSONL document; blank lines are skipped; the error is
    ["line N: byte M: …"] naming the offending 1-based line and the
    absolute 0-based byte offset within the document. *)

val to_channel : out_channel -> Trace.event list -> unit

val read : in_channel -> (Trace.event list, string) result
(** Streaming counterpart of {!of_string}: parses JSONL from a channel
    until end of file.  A malformed line — truncated JSON, an unknown
    tag, a missing field — yields [Error "line N: byte M: …"] with the
    1-based line number and absolute byte offset instead of raising;
    blank lines are skipped. *)
