(** The Section 6 coalition example — reproduction of Figure 1.

    An application's software modules are distributed over the servers
    of an enterprise coalition; modules depend on each other (a
    digraph); an auditor dispatches a mobile code that SHA-1-hashes
    every module, and "a module is verified as correct if and only if
    all of its depended modules and itself are correct" — a spatial
    ordering requirement expressed in SRAC, enforced by the coordinated
    model, under a temporal verification deadline. *)

val module_graph : unit -> Digraph.t
(** The Figure 1 dependency digraph: 11 modules [a]–[k]; an edge
    [x -> y] means module [x] depends on module [y]. *)

val placement : (string * string) list
(** Module → hosting server (the dotted groupings of Figure 1):
    [a]–[d] on [s1], [e]–[g] on [s2], [h]–[k] on [s3]. *)

val hash_access : string -> Sral.Access.t
(** The [op(hash) m @ s] access verifying module [m] at its server. *)

val audit_program : unit -> Sral.Ast.t
(** The auditing mobile code: hash every module in dependency order
    (dependencies first). *)

val tampered_program : unit -> Sral.Ast.t
(** A buggy/malicious variant that hashes some modules before their
    dependencies — the runs the constraints must reject. *)

val dependency_constraints : unit -> (string * Srac.Formula.t) list
(** Per-module SRAC constraint: for module [m] with dependencies
    [d₁..dₖ], [⋀ᵢ seq(hash dᵢ @ sᵢ, hash m @ sₘ)] — every dependency
    hashed before [m]. Paired with the module name. *)

type report = {
  metrics : Naplet.Metrics.t;
  hashes : (string * string) list;
      (** module → SHA-1 hex of its (server-stored) contents, for the
          modules whose hash access was granted, in audit order *)
  granted : int;
  denied : int;
  all_verified : bool;
      (** every module hashed, in an order respecting dependencies *)
  deadline_hit : bool;  (** some hash was denied for temporal expiry *)
  trace : Obs.Trace.event list;
      (** the run's full end-to-end trace, in emission order: lifecycle
          events, per-stage decision spans and verdicts —
          export it with {!Obs.Export.to_string} *)
}

val run :
  ?deadline:Temporal.Q.t ->
  ?respect_order:bool ->
  ?tamper_contents:string list ->
  unit ->
  report
(** Run the audit end-to-end in the Naplet emulation.
    [deadline]: validity duration of the hash permission (default: none);
    [respect_order]: use {!audit_program} (default) or
    {!tampered_program}; [tamper_contents]: modules whose stored
    contents are corrupted before the run (their hashes will differ
    from {!expected_hashes}). *)

val expected_hashes : unit -> (string * string) list
(** Reference hashes of the pristine module contents. *)

type parallel_report = {
  base : report;
  clones_used : int;
  reports_collected : int;
      (** clone completion reports received by the home collector *)
}

val run_parallel : ?deadline:Temporal.Q.t -> clones:int -> unit -> parallel_report
(** The Section 5.2 [ApplAgentProg] pattern applied to the audit: [k]
    cloned naplets each hash an equal share of the modules concurrently
    and report their completed-access counts home over a channel.  The
    clones share one naplet team.  Dependency-order constraints are
    omitted (shares race past each other); this is the load-balancing /
    deadline-meeting configuration the paper motivates with "balance
    the usage requests from sharing users" — contrast with {!run}
    under the same [deadline]. *)
