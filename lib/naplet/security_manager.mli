(** The NapletSecurityManager analog.

    Every access request of every agent passes through [check], which
    mirrors Section 5.2's [checkPermission]: identify the subject,
    run the spatial-constraint check and the temporal-constraint check
    through the coordinated model, and grant or raise.  Arrival hooks
    perform authentication + role activation ("the naplet server
    delegates the naplet execution to the subject of the naplet
    itself"). *)

type t

type rejected_role = { role : string; reason : string }
(** A requested role the manager refused to activate, with a
    human-readable reason (unauthorized, or a dynamic-SoD conflict). *)

val create : Coordinated.System.t -> t
val control : t -> Coordinated.System.t

val set_availability :
  t -> (server:string -> time:Temporal.Q.t -> bool) -> unit
(** Install a server-availability oracle (normally the fault injector's
    crash schedule; tests can model policy-stale replicas the same
    way).  Once installed, {!check} fails {b closed}: an access
    targeting a server the oracle reports down is denied with
    [Server_unavailable] — published as a normal [Decision] event, so
    the denial is on the audit record — instead of reaching the
    decision procedure. *)

val refuse :
  t ->
  object_id:string ->
  time:Temporal.Q.t ->
  Sral.Access.t ->
  Coordinated.Decision.verdict
(** Mint and publish a fail-closed [Server_unavailable] denial for the
    access (used by the world when a migration retry budget is
    exhausted; the world counts the returned verdict itself).  Always
    returns [Denied (Server_unavailable _)]. *)

val on_arrival :
  t ->
  object_id:string ->
  owner:string ->
  roles:string list ->
  server:string ->
  time:Temporal.Q.t ->
  program:Sral.Ast.t ->
  Rbac.Session.t * rejected_role list
(** Authenticate the agent's owner, create/reuse its session, activate
    the requested roles and record the arrival.  Roles the owner may
    not activate ([Not_authorized]) or that a dynamic
    separation-of-duty constraint forbids ([Dsd_violation]) are
    reported in the second component, in request order, instead of
    being silently dropped — callers can surface them; the session is
    still established with the roles that did activate.  Each rejection
    is also published as an {!Obs.Trace.Role_rejected} event on the
    control's bus, before the arrival is recorded. *)

val check :
  t ->
  object_id:string ->
  program:Sral.Ast.t ->
  time:Temporal.Q.t ->
  Sral.Access.t ->
  Coordinated.Decision.verdict
(** @raise Invalid_argument if the object never arrived (no session). *)

val check_session :
  t ->
  session:Rbac.Session.t ->
  monitor:Coordinated.Monitor.t ->
  program:Sral.Ast.t ->
  time:Temporal.Q.t ->
  Sral.Access.t ->
  Coordinated.Decision.verdict
(** {!check} with the session and the object's monitor supplied by the
    caller, skipping both per-object lookups — the id-indexed world
    keeps each agent's session and monitor in its row and decides
    accesses through this entry point
    ({!Coordinated.System.check_monitor}).  Identical verdicts (and
    published events) to {!check} given the session {!on_arrival}
    established for the object and the control's
    {!Coordinated.System.monitor} for it. *)

val session : t -> object_id:string -> Rbac.Session.t option
