(** Shared-resource accesses.

    An access is the primitive action of the paper's model: a tuple
    [(op, r, s)] meaning "perform operation [op] on shared resource [r]
    at coalition server [s]".  The mobile object performing the access
    is implicit (it is the object whose program contains the access);
    the full paper tuple [(o, op, r, s)] is recovered at runtime by the
    monitor, which knows which object it tracks. *)

type operation =
  | Read
  | Write
  | Execute
  | Custom of string
      (** Application-defined operation, e.g. [Custom "hash"] for the
          integrity-audit scenario of Section 6. *)

type t = {
  op : operation;
  resource : string;  (** shared resource name, ranges over [R] *)
  server : string;  (** hosting server name, ranges over [S] *)
}

val make : op:operation -> resource:string -> server:string -> t

val read : string -> at:string -> t
(** [read r ~at:s] is the access [read r @ s]. *)

val write : string -> at:string -> t
val execute : string -> at:string -> t

val custom : string -> string -> at:string -> t
(** [custom name r ~at:s] is the access [op(name) r @ s]. *)

val compare : t -> t -> int

val equal : t -> t -> bool
(** [compare a b = 0], tested field by field with [String.equal]
    (physically equal accesses first): no allocation. *)

val hash : t -> int
(** Content hash of the operation and both names, folded in OCaml: no
    C call, no allocation.  Equal accesses hash equal. *)

val hash_name : string -> int
(** The same fold over one name, for tables keyed by a name: no C call,
    no allocation, and names differing in one byte spread over the low
    bits. *)

module Tbl : Hashtbl.S with type key = t
(** Hashtables keyed by access, compared with {!equal} and hashed with
    {!hash} (no tuple is built, so a probe allocates nothing). *)

val operation_name : operation -> string
(** Lower-case operation name as used by the concrete syntax. *)

val operation_of_name : string -> operation
(** Inverse of {!operation_name}; unknown names map to [Custom]. *)

val pp : Format.formatter -> t -> unit
(** Prints in concrete SRAL syntax, e.g. [read db1 @ s2]. *)

val pp_operation : Format.formatter -> operation -> unit
val to_string : t -> string
