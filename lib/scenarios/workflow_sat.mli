(** Workflow satisfiability: does {e any} object-to-task assignment
    complete a {!Workflow_family.t} under the deployed policy?

    The checker and the brute-force oracle decide the {e same}
    predicate by construction, because both reduce an assignment to the
    one definitional interpreter ({!Workflow_family.run}, i.e.
    {!Parallel.Scenario.run} driving {!Coordinated.System.check}) and
    both search assignments in the same lexicographic order (task at
    canonical position 0 most significant; performers in declaration
    order).  The checker prunes with {e sound, prefix-determined}
    filters only — static RBAC candidacy via
    {!Rbac.Engine.decide_access} on a simulated session, fail-closed
    crash windows from the fault plan, window prechecks, duty
    forward-checking and prefix replay — so when both find a witness it
    is the {e same} witness, and the differential suite can compare
    assignments for equality rather than mere sat/unsat agreement. *)

type impossibility =
  | Window_missed of {
      task : string;
      window : Temporal.Interval.t;
      slot : Temporal.Q.t;
    }
      (** the task's validity window does not contain its decision
          slot — no assignment can move the canonical schedule *)
  | No_candidate of { task : string; rejected : (string * string) list }
      (** no performer statically qualifies; [rejected] pairs each
          performer id with the reason ([rbac: ...] or [server ... is
          down at ...]) *)
  | Duty_unsatisfiable of { duty : Workflow_family.duty; detail : string }
      (** a separation duty over more tasks than there are performers,
          or a binding duty whose tasks share no common candidate *)
  | Exhausted of { task : string; attempts : (string * string) list }
      (** the backtracking search emptied; [task] is the deepest task
          reached and [attempts] pairs each performer tried there with
          the denial that rejected it *)

type verdict =
  | Complete of Workflow_family.assignment
      (** lexicographically-first completing assignment — a replayable
          witness: {!Workflow_family.run} on it completes *)
  | Impossible of impossibility

val check :
  ?mode:Coordinated.System.decision_mode -> Workflow_family.t -> verdict

val brute_force :
  ?mode:Coordinated.System.decision_mode ->
  Workflow_family.t ->
  Workflow_family.assignment option
(** The oracle: enumerate {e every} full assignment in lexicographic
    order and replay each through the interpreter, returning the first
    that completes.  No pruning, no shared code with {!check} beyond
    the interpreter itself.  Cost [performers ^ tasks] full replays —
    small instances only. *)

val candidates : Workflow_family.t -> int -> string list
(** Performer ids statically able to perform task [k]: plain-RBAC
    grant covers the access (simulated session, best-effort role
    activation exactly as the interpreter does) and the task's server
    is not inside a crash window at [slot k].  Sound: a non-candidate
    is denied in every run. *)

type comparison =
  | Agree_sat of Workflow_family.assignment
      (** both found this same witness *)
  | Agree_unsat of impossibility
  | Divergent of string

val against_brute_force :
  ?mode:Coordinated.System.decision_mode -> Workflow_family.t -> comparison
(** Run both deciders and compare.  [Divergent] also covers the
    checker returning a witness that fails to replay, and witnesses
    that differ — stricter than sat/unsat agreement. *)

val verdict_name : verdict -> string
(** ["sat"] or ["unsat"]. *)

val explain : impossibility -> string
val pp_verdict : Format.formatter -> verdict -> unit

val report_line :
  index:int ->
  family:Workflow_family.family ->
  Workflow_family.t ->
  string * comparison
(** One deterministic JSON object (no trailing newline, fixed key
    order) describing the differential on one workflow: index, family,
    size, checker verdict, witness or impossibility, brute-force
    verdict, agreement, and witness replay status — paired with the
    {!against_brute_force} comparison computed from the same checker,
    brute-force and replay runs, so each runs once.  [stacc workflow]
    writes the line verbatim, so two runs byte-compare. *)
