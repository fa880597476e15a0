(** A bounded memo that domains share without a lock.

    The table is an immutable map of hash buckets published through an
    [Atomic]: a read is one [Atomic.get] and a lookup, an insert
    publishes a new map by compare-and-set.  Losing a race only means a
    value was computed twice.  Keys may come from untrusted peers, so
    the table starts over when it holds [cap] entries.  The caller
    hashes each key, so a key type with a cheap stored hash pays for
    no rehash. *)

module Make (Key : sig
  type t

  val equal : t -> t -> bool
end) : sig
  type 'v t

  val create : cap:int -> 'v t

  val size : 'v t -> int
  (** Entries held: at most [cap]. *)

  val find : 'v t -> hash:int -> Key.t -> 'v option

  val add : 'v t -> hash:int -> Key.t -> 'v -> unit
  (** A no-op when an equal key is already held.  Adding to a full
      table drops every entry first. *)
end
