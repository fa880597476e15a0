(** Permission-binding store with a per-access memo of applicable
    bindings.

    Holds {!System}'s bindings as one insertion-ordered list, so
    {!to_list} hands it out without rebuilding.  {!applicable} answers
    an access from a memo keyed by {!Sral.Access.equal}: a miss
    computes [List.filter (applies_to · access) (to_list t)] once, and
    every later lookup of an equal access returns that same list.  The
    memo is dropped on {!add}, and also when it reaches {!memo_cap}
    entries, so a stream of distinct access names cannot grow an
    index's state.  The memo is mutable and private to its index:
    an index built from another's {!to_list} starts with an empty one.

    The result of {!applicable} is the same list, in the same
    (insertion) order, as the linear filter — property-tested in
    [test/test_core.ml], with [add]s and more distinct accesses than
    {!memo_cap} interleaved. *)

type t

val of_list : Perm_binding.t list -> t

val add : t -> Perm_binding.t -> unit
(** Append; O(bindings).  Drops the memo. *)

val length : t -> int

val to_list : t -> Perm_binding.t list
(** All bindings in insertion order; no copy. *)

val applicable : t -> Sral.Access.t -> Perm_binding.t list
(** Bindings whose permission pattern covers the access, in insertion
    order.  A memo hit allocates nothing. *)

val memo_cap : int
(** Entries at which the memo is dropped before the next insert (1024). *)
