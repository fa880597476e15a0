(** Per-mobile-object runtime monitor.

    One monitor follows one mobile object through its journey: the
    servers it arrived at (and when), the execution proofs of the
    accesses it performed, and one {!Residual.slot} per permission
    binding, which holds the binding's activation history beside the
    lazy decision path's caches.  It is the state both halves of the
    coordinated decision read: the spatial checker consumes the proof
    store, the temporal checker the activation step functions and
    arrival times.

    Times must be fed in non-decreasing order (there is one logical
    clock per object — its own execution timeline, Section 4's "time
    line"); violating that raises [Invalid_argument]. *)

type t

val create : object_id:string -> t
val object_id : t -> string
val proofs : t -> Srac.Proof.store

val record_arrival : t -> server:string -> time:Temporal.Q.t -> unit
val arrivals : t -> Temporal.Q.t list
(** Ascending arrival times; empty until the first arrival. *)

val arrived : t -> bool
(** [arrivals m <> []], without building the list. *)

val itinerary : t -> (string * Temporal.Q.t) list
(** Servers visited with arrival times, in order. *)

val current_server : t -> string option

val record_access : t -> Sral.Access.t -> time:Temporal.Q.t -> unit
(** Issues an execution proof. *)

val performed : t -> Sral.Trace.t
(** The trace performed so far, in time order. *)

val slot : t -> session:Rbac.Session.t -> Perm_binding.t -> Residual.slot
(** The binding's slot, created on first use with an empty activation
    history and no machine; [session] seeds the slot's RBAC bit, which
    the lazy path fills on its first read.  Bindings are keyed
    physically: two bindings on one permission get two slots, so they
    keep separate activation histories and spend separate [dur]
    budgets.  Both decision modes call it; the naive one writes only
    the activation history. *)

val set_active : t -> Residual.slot -> time:Temporal.Q.t -> bool -> unit
(** Record an activation state change in the slot at [time], advancing
    the clock.  Idempotent when the state does not change. *)

val activation_fn : t -> Perm_binding.t -> Temporal.Step_fn.t
(** The binding's [active(perm, ·)] function so far, read from its
    slot; constant-false for a binding with no slot.  Creates no slot. *)

val residuals : t -> Residual.store
(** The monitor's one per-binding table: a slot per binding refreshed
    or evaluated, nothing per requested access.  The first {!slot}
    makes it; until then this is an empty table shared by every such
    monitor, which nothing writes (so a fresh monitor carries no bucket
    array, and neither this nor {!activation_fn} creates one).  Owned
    by the monitor so its lifetime matches the proof store the residual
    cursors index into.  Everything it holds is about its own object:
    Program-scope outcomes depend only on the program and the binding,
    so they live in the table a system shares with its clones
    ({!Residual.Program_outcomes}), not here. *)

val companions : t -> t list
val companions_stamp : t -> int
(** The object's companions' monitors as {!stamp_companions} last
    recorded them, and the team-membership version they were computed
    at: [[]] and [-1] on a fresh monitor, below every version.  The
    owning {!System} computes the list and compares the stamp; the
    monitor only holds them, so the cache lives and dies with the
    object's record. *)

val stamp_companions : t -> version:int -> t list -> unit

val now : t -> Temporal.Q.t
(** Largest time seen so far (zero initially). *)

val history_epoch : t -> int
(** Execution proofs issued so far — bumped by {!record_access}.  The
    lazy decision path's residual cursors use it as the proof count. *)

val pp : Format.formatter -> t -> unit
