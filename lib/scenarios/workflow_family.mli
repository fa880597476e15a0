(** Coalition temporal workflows — the DAG-of-tasks scenario family.

    A workflow fixes a coalition deployment (RBAC population, grants,
    assignments, spatio-temporal bindings, a pool of mobile {e
    performer} objects) together with a DAG of tasks.  Each task names
    one shared-resource access that must be {e granted} by the deployed
    policy for the workflow to progress, optionally inside a temporal
    validity window, and tasks are related by separation-of-duty
    (pairwise-distinct performers) and binding-of-duty (one performer)
    constraints across the mobile objects — the constraint vocabulary
    of "Security Constraints in Temporal Role-Based Access-Controlled
    Workflows" mapped onto [lib/temporal] + [lib/srac].

    {b Execution semantics} are definitional and deterministic: tasks
    run one per slot in the {e canonical order} (Kahn's algorithm over
    the DAG, ties broken by declaration order).  The task at canonical
    position [k] (0-based) is performed by its assigned object, which
    arrives at the task's server at time [2k+1] and has the access
    decided at time [slot k = 2k+2] through the real decision pipeline.
    An assignment {e completes} the workflow iff every duty constraint
    holds, every task's slot lies inside its window, and every task's
    access is granted.  The encoding of a run is a
    {!Parallel.Scenario.t} — one interpreter ({!Parallel.Scenario.run},
    driving {!Coordinated.System.check}) serves the satisfiability
    checker, the brute-force oracle, the chaos/fuzz suites and the
    sharded conformance harness alike, so the family is a first-class
    workload for every existing harness.

    An optional {!Fault.Plan.t} rides along exactly as in
    {!Parallel.Scenario}: a task whose server is inside a crash window
    at its slot is denied fail-closed ([Server_unavailable]),
    deterministically from plan data alone. *)

type task = {
  name : string;
  access : Sral.Access.t;  (** the permission the task needs *)
  window : Temporal.Interval.t option;
      (** global-time validity window the task's decision slot must lie
          in ([None]: always valid) *)
  after : string list;  (** prerequisite task names (DAG edges) *)
}

type duty =
  | Separation of string list
      (** the named tasks must be performed by pairwise-distinct
          objects (SoD) *)
  | Binding of string list  (** ... by one and the same object (BoD) *)

type performer = { id : string; owner : string; roles : string list }
(** A mobile object available to the workflow.  Its SRAL program is the
    whole workflow script (every task access in canonical order) — the
    script is public; which steps an object {e performs} is the
    assignment's choice. *)

type t = private {
  users : string list;
  roles : string list;
  grants : (string * Rbac.Perm.t) list;
  assignments : (string * string) list;  (** user, role *)
  bindings : Coordinated.Perm_binding.t list;
  performers : performer list;
  tasks : task list;  (** in canonical (topological) order *)
  duties : duty list;
  plan : Fault.Plan.t option;
}

val make :
  ?users:string list ->
  ?roles:string list ->
  ?grants:(string * Rbac.Perm.t) list ->
  ?assignments:(string * string) list ->
  ?bindings:Coordinated.Perm_binding.t list ->
  ?duties:duty list ->
  ?plan:Fault.Plan.t ->
  performers:performer list ->
  tasks:task list ->
  unit ->
  t
(** Validates everything once: task names unique, [after] and duty
    edges resolve, the task graph is acyclic, duty groups have ≥ 2
    tasks, performer ids unique, owners are declared users, and the
    RBAC fields materialize into a well-formed policy.  Tasks are
    re-ordered into the canonical topological order.
    @raise Invalid_argument on any violation. *)

val slot : int -> Temporal.Q.t
(** Decision instant of the task at canonical position [k]: [2k+2]. *)

val task_slot : t -> string -> Temporal.Q.t
(** {!slot} of the named task.  @raise Not_found on unknown name. *)

val in_window : t -> int -> bool
(** Does task [k]'s window contain its slot?  (Assignment-independent,
    because the schedule is canonical.) *)


val policy_of : t -> Rbac.Policy.t

val script : t -> Sral.Ast.t
(** The straight-line workflow script every performer carries. *)

type assignment = (string * string) list
(** [(task name, performer id)] pairs in canonical task order.  A
    prefix assignment covers the first [k] tasks. *)

val duties_ok : t -> assignment -> bool
(** Duty constraints restricted to the tasks the assignment covers. *)

val to_scenario : t -> assignment -> Parallel.Scenario.t
(** The run of the (possibly prefix) assignment as coalition data: per
    covered task [k], event [2k] is [Arrive] and event [2k+1] the
    [Check], so {!Parallel.Scenario}'s event clock (event [i] at time
    [i+1]) lands each decision exactly on {!slot}[ k].
    @raise Invalid_argument if the assignment is not a prefix of the
    canonical task order or names an unknown performer. *)

type task_result = {
  task : string;
  performer : string;
  verdict : Coordinated.Decision.verdict;
  in_window : bool;
}

type outcome = {
  results : task_result list;  (** canonical order, one per covered task *)
  completed : bool;
      (** duties hold ∧ every covered task in window ∧ every verdict
          granted — for a full assignment, "the workflow completes" *)
  raw : Parallel.Scenario.outcome;
      (** the underlying coalition run (trace, audit counters, log) *)
}

val run :
  ?mode:Coordinated.System.decision_mode -> t -> assignment -> outcome
(** Interpret {!to_scenario} with {!Parallel.Scenario.run} and read
    each task's structured verdict back off the decision events of the
    trace. *)

(** {2 Seeded generator families}

    All sampling comes from the caller's [Random.State.t] in
    [test/gen.ml] / {!Parallel.Workload} style: the same state always
    yields the same workflow. *)

type family = Satisfiable | Unsatisfiable | Adversarial

val family_name : family -> string
val family_of_name : string -> family option

val satisfiable :
  ?tasks:int -> ?performers:int -> Random.State.t -> t * assignment
(** A workflow with a {e planted} completing assignment (returned):
    grants cover each task's access for its planted performer, windows
    contain the slots, duties are consistent with the plant, bindings
    are harmless. *)

val unsatisfiable : ?tasks:int -> ?performers:int -> Random.State.t -> t
(** Unsatisfiable {e by construction}: a planted-satisfiable workflow
    sabotaged in one of four provable ways — all grants covering some
    task's access revoked; some task's window moved off its slot;
    a separation duty over more tasks than there are performers
    (pigeonhole); or a binding duty whose two tasks' permissions are
    granted to roles no single performer can hold together. *)

val adversarial :
  ?tasks:int -> ?performers:int -> ?faults:bool -> Random.State.t -> t
(** Everything random: grants/assignments from {!Parallel.Workload}'s
    distributions, the full spatio-temporal binding mix, windows that
    may contain, touch or miss their slots (including point and
    rational-endpoint windows), random duties, and (with [faults],
    default sometimes) a named fault plan over the run's horizon.  May
    be satisfiable or not — the differential suite decides each against
    the brute-force oracle. *)

val generate :
  ?tasks:int -> ?performers:int -> family -> Random.State.t -> t

val workflows :
  ?tasks:int -> ?performers:int -> family -> salt:int -> count:int -> int -> t array
(** [workflows fam ~salt ~count seed]: workflow [i] is generated from
    [Random.State.make [|salt; seed; i|]] — reproducible from the
    triple, and growing [count] never changes existing instances. *)

val pp_task : Format.formatter -> task -> unit
val pp : Format.formatter -> t -> unit
