(** Coalition servers and their shared-resource stores.

    A server hosts named shared resources (with contents, so the
    integrity-audit scenario can hash them) and charges a per-access
    service time.  Access-control decisions are made centrally by the
    {!Security_manager}; the server is the resource substrate. *)

type t

val create : ?access_duration:Temporal.Q.t -> ?capacity:int -> string -> t
(** [access_duration] defaults to 1; [capacity] (default 1) is the
    number of accesses the server can service concurrently — requests
    beyond it queue, modelling Naplet's share-based resource
    management.  @raise Invalid_argument if [capacity < 1]. *)

val name : t -> string
val access_duration : t -> Temporal.Q.t

val put_resource : t -> name:string -> contents:string -> unit
val get_resource : t -> name:string -> string option
val resources : t -> string list
(** Sorted. *)

val capacity : t -> int

val reserve : t -> now:Temporal.Q.t -> Temporal.Q.t * Temporal.Q.t
(** Admit one access arriving at [now]: returns [(start, finish)] where
    [start >= now] is when a service slot frees up and
    [finish = start + access_duration].  Updates the server's slot
    state and counts the access. *)

val touch : t -> unit
(** Count one serviced access (without reserving a slot). *)

val serviced : t -> int
val pp : Format.formatter -> t -> unit
