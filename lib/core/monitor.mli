(** Per-mobile-object runtime monitor.

    One monitor follows one mobile object through its journey: the
    servers it arrived at (and when), the execution proofs of the
    accesses it performed, and the activation history of each bound
    permission.  It is the state both halves of the coordinated
    decision read: the spatial checker consumes the proof store, the
    temporal checker the activation step functions and arrival times.

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

val set_active : t -> key:string -> time:Temporal.Q.t -> bool -> unit
(** Record a permission-activation state change (keyed by
    {!Perm_binding.key}).  Idempotent when the state does not change. *)

val activation_fn : t -> key:string -> Temporal.Step_fn.t
(** The permission's [active(perm, ·)] function so far; initially
    constant-false. *)

val activation_cell : t -> key:string -> Residual.cell
(** The key's raw activation-change cell, creating it empty if absent.
    The lazy decision path caches it per binding slot so refreshes and
    current-state reads skip the hashtable probe. *)

val set_active_cell : t -> Residual.cell -> time:Temporal.Q.t -> bool -> unit
(** {!set_active} against an already-resolved cell: same clock
    advancement, no key lookup. *)

val residuals : t -> Residual.store
(** The monitor's lazy-decision state (binding slots, per-access RBAC
    verdicts).  Owned by the monitor so its lifetime matches the proof
    store the residual cursors index into.  Everything a monitor holds
    is about its own object: Program-scope outcomes depend only on the
    program and the binding, so they live in the table a system shares
    with its clones ({!Residual.Program_outcomes}), not here. *)

val is_active_at : t -> key:string -> Temporal.Q.t -> bool

val now : t -> Temporal.Q.t
(** Largest time seen so far (zero initially). *)

val history_epoch : t -> int
(** Execution proofs issued so far — bumped by {!record_access}.  The
    lazy decision path's residual cursors use it as the proof count. *)

val pp : Format.formatter -> t -> unit
