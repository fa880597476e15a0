(** Packed bitsets for the admin verifier's symbolic states.

    A set of [n] bits stored in [⌈n/8⌉] bytes, little-endian within a
    byte.  The admin transition system packs every state component
    (user×role assignments, role×perm grants, pool-binding activations,
    SoD-constraint activations, membership flags) into one value, each
    region starting on a byte boundary, so that

    - structural equality / hashing of a state is equality / hashing of
      the underlying bytes,
    - a contiguous byte range is a usable cache key
      ({!prefix_key} — the leaf-oracle fingerprint), and
    - region-wise subset tests for antichain subsumption are byte-range
      AND-compares ({!subset_bytes}). *)

type t

val create : int -> t
(** [create n] is [n] zero bits (rounded up to whole bytes). *)

val copy : t -> t
val get : t -> int -> bool
val set : t -> int -> unit
val clear : t -> int -> unit

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

val key : t -> string
(** The raw bytes as an immutable string — a hashtable key that is
    stable under later mutation of [t]. *)

val prefix_key : t -> bytes:int -> string
(** The first [bytes] bytes as an immutable string. *)

val subset_bytes : t -> t -> pos:int -> len:int -> bool
(** [subset_bytes a b ~pos ~len]: within the byte range
    [\[pos, pos+len)], is every bit of [a] also set in [b]? *)

val cardinal : t -> int
(** Number of set bits. *)
