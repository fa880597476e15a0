(** Small-step execution machine for one mobile object's SRAL program.

    The program is defunctionalized into a set of threads (one per
    active [||] branch) holding explicit continuation stacks, so the
    world can interleave agents, block threads on channels/signals and
    resume them later — deterministic concurrency without OS threads.

    Silent steps (assignment, branching, loop unrolling, [skip]) are
    executed internally; the machine surfaces only the actions the
    world must arbitrate. *)

type request =
  | Access of Sral.Access.t
  | Send of string * Sral.Value.t  (** channel, evaluated payload *)
  | Recv of string * string  (** channel, target variable *)
  | Signal of string
  | Wait of string

type status =
  | Ready of { thread : int; request : request; silent_steps : int }
      (** A thread reached an action; [silent_steps] were taken first
          (for time accounting). *)
  | All_blocked
      (** Every live thread is parked — the world must wake one. *)
  | Finished
  | Fault of string
      (** Dynamic error (unbound variable, type error, fuel
          exhaustion). *)

type t

val create : ?fuel:int -> Sral.Ast.t -> t
(** [fuel] (default 100_000) bounds consecutive silent steps before the
    machine declares divergence — [while true do skip] cannot hang the
    simulator. *)

val step : t -> status
(** Run until the next action request, rotating over runnable threads
    fairly.  Calling [step] again without completing a surfaced request
    re-surfaces it. *)

val complete : t -> thread:int -> unit
(** The surfaced request was fulfilled; the thread moves on. *)

val complete_recv : t -> thread:int -> var:string -> Sral.Value.t -> unit
(** Fulfil a [Recv]: bind the variable, then move on. *)

val block : t -> thread:int -> unit
(** Park the thread (its request stays pending). *)

val unblock : t -> thread:int -> unit

val skip_request : t -> thread:int -> unit
(** Abandon the surfaced request and move on without performing it —
    the deny-and-continue policy for refused accesses. *)

val env_value : t -> string -> Sral.Value.t option
