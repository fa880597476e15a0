(** Decision outcomes.

    The verdict type lives in the observability layer — below both the
    decision procedure and every event consumer — because it appears in
    {!Trace.event}s and must be shareable by all of them without a
    dependency cycle.  [Coordinated.Decision] re-exports these
    constructors as [Decision.reason] and [Decision.verdict]; either
    spelling works. *)

type reason =
  | Rbac_denied of string
  | Spatial_violation of { binding : string; detail : string }
  | Temporal_expired of { binding : string; spent : Temporal.Q.t }
  | Not_active of string
      (** the permission is not in the active state at decision time
          (Eq. 3.1's conjunction failed earlier on this timeline) *)
  | Not_arrived  (** no arrival recorded — object not on any server *)
  | Server_unavailable of string
      (** the target server is crashed (or its policy replica is
          stale): the coalition fails {e closed} — the access is
          denied on the record rather than silently skipped *)

type t = Granted | Denied of reason

val is_granted : t -> bool
val pp_reason : Format.formatter -> reason -> unit
val pp : Format.formatter -> t -> unit
