(** Untrusted text echoed into a message, cut to a fixed prefix, so a
    message that names what a peer sent stays bounded whatever the peer
    sent.  Text of at most {!limit} bytes keeps its bytes. *)

val limit : int
(** 64: the longest text echoed whole. *)

val clip : string -> string
(** [s] itself when it is at most {!limit} bytes, otherwise its first
    {!limit} bytes followed by ["... (N bytes)"]. *)

val quote : string -> string
(** {!clip} with the kept text in OCaml string syntax, byte for byte
    [Printf.sprintf "%S"] (quotes around {!String.escaped}), and the
    length note outside the quotes. *)
