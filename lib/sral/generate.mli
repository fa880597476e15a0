(** Seeded random generation of accesses and programs.

    Used by the property-test suites and by the benchmark workload
    generators (experiment E2's m × n sweep).  All generators take an
    explicit [Random.State.t] so workloads are reproducible. *)

val access :
  ?ops:Access.operation list ->
  resources:string list ->
  servers:string list ->
  Random.State.t ->
  Access.t

val program :
  ?allow_par:bool ->
  ?allow_io:bool ->
  resources:string list ->
  servers:string list ->
  size:int ->
  Random.State.t ->
  Ast.t
(** A random well-formed program with approximately [size] AST nodes.
    [allow_par] (default [true]) enables [||]; [allow_io] (default
    [false]) enables assignment, [ch ! e], [ch ? x], [signal(x)] and
    [wait(x)] over the fixed channel names [c1], [c2] and signal names
    [g1], [g2], so that generated programs run side by side meet each
    other's sends and signals — disable it when the program is meant
    for pure trace-model work. *)

val loop_free_program :
  resources:string list ->
  servers:string list ->
  size:int ->
  Random.State.t ->
  Ast.t
(** Like {!program} but without [while] (finite trace model). *)
