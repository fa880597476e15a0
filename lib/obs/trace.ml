module Q = Temporal.Q

type stage = Rbac | Spatial | Temporal

type fault =
  | Server_unreachable
  | Migration_failure
  | Channel_drop
  | Channel_delay
  | Channel_duplicate
  | Signal_loss
  | Recv_timeout

type event =
  | Stage_start of { time : Q.t; object_id : string; stage : stage }
  | Stage_end of {
      time : Q.t;
      object_id : string;
      stage : stage;
      ok : bool;
      elapsed_ns : int64;
    }
  | Decision of {
      time : Q.t;
      object_id : string;
      access : Sral.Access.t;
      verdict : Verdict.t;
    }
  | Arrival of { time : Q.t; object_id : string; server : string }
  | Role_rejected of {
      time : Q.t;
      object_id : string;
      role : string;
      reason : string;
    }
  | Spawned of { time : Q.t; agent : string; home : string }
  | Migrated of { time : Q.t; agent : string; from_ : string; to_ : string }
  | Message_sent of { time : Q.t; agent : string; channel : string }
  | Message_received of { time : Q.t; agent : string; channel : string }
  | Signal_raised of { time : Q.t; agent : string; signal : string }
  | Completed of { time : Q.t; agent : string }
  | Aborted of { time : Q.t; agent : string; reason : string }
  | Deadlocked of { time : Q.t; agent : string }
  | Fault_injected of {
      time : Q.t;
      agent : string;
      fault : fault;
      target : string;
    }
  | Server_down of { time : Q.t; server : string }
  | Server_up of { time : Q.t; server : string }
  | Retry_scheduled of { time : Q.t; agent : string; attempt : int; at : Q.t }
  | Gave_up of { time : Q.t; agent : string; attempts : int }
  | Policy_changed of { time : Q.t; op : string; version : int }
  | Run_finished of { time : Q.t }

let time = function
  | Stage_start { time; _ }
  | Stage_end { time; _ }
  | Decision { time; _ }
  | Arrival { time; _ }
  | Role_rejected { time; _ }
  | Spawned { time; _ }
  | Migrated { time; _ }
  | Message_sent { time; _ }
  | Message_received { time; _ }
  | Signal_raised { time; _ }
  | Completed { time; _ }
  | Aborted { time; _ }
  | Deadlocked { time; _ }
  | Fault_injected { time; _ }
  | Server_down { time; _ }
  | Server_up { time; _ }
  | Retry_scheduled { time; _ }
  | Gave_up { time; _ }
  | Policy_changed { time; _ }
  | Run_finished { time } ->
      time

let subject = function
  | Stage_start { object_id; _ }
  | Stage_end { object_id; _ }
  | Decision { object_id; _ }
  | Arrival { object_id; _ }
  | Role_rejected { object_id; _ } ->
      Some object_id
  | Spawned { agent; _ }
  | Migrated { agent; _ }
  | Message_sent { agent; _ }
  | Message_received { agent; _ }
  | Signal_raised { agent; _ }
  | Completed { agent; _ }
  | Aborted { agent; _ }
  | Deadlocked { agent; _ }
  | Fault_injected { agent; _ }
  | Retry_scheduled { agent; _ }
  | Gave_up { agent; _ } ->
      Some agent
  | Server_down _ | Server_up _ | Policy_changed _ | Run_finished _ -> None

let stage_name = function
  | Rbac -> "rbac"
  | Spatial -> "spatial"
  | Temporal -> "temporal"

let stage_of_name = function
  | "rbac" -> Some Rbac
  | "spatial" -> Some Spatial
  | "temporal" -> Some Temporal
  | _ -> None

let fault_name = function
  | Server_unreachable -> "server_unreachable"
  | Migration_failure -> "migration_failure"
  | Channel_drop -> "channel_drop"
  | Channel_delay -> "channel_delay"
  | Channel_duplicate -> "channel_duplicate"
  | Signal_loss -> "signal_loss"
  | Recv_timeout -> "recv_timeout"

let fault_of_name = function
  | "server_unreachable" -> Some Server_unreachable
  | "migration_failure" -> Some Migration_failure
  | "channel_drop" -> Some Channel_drop
  | "channel_delay" -> Some Channel_delay
  | "channel_duplicate" -> Some Channel_duplicate
  | "signal_loss" -> Some Signal_loss
  | "recv_timeout" -> Some Recv_timeout
  | _ -> None

(* Every payload is immutable structural data (strings, ints, ℚ values,
   accesses, verdicts), so polymorphic equality is exact. *)
let equal (a : event) (b : event) = a = b

let pp ppf ev =
  let t = time ev in
  match ev with
  | Stage_start { object_id; stage; _ } ->
      Format.fprintf ppf "[%a] %s: %s stage begins" Q.pp t object_id
        (stage_name stage)
  | Stage_end { object_id; stage; ok; elapsed_ns; _ } ->
      Format.fprintf ppf "[%a] %s: %s stage %s (%Ldns)" Q.pp t object_id
        (stage_name stage)
        (if ok then "passed" else "failed")
        elapsed_ns
  | Decision { object_id; access; verdict; _ } ->
      Format.fprintf ppf "[%a] %s: %a -> %a" Q.pp t object_id Sral.Access.pp
        access Verdict.pp verdict
  | Arrival { object_id; server; _ } ->
      Format.fprintf ppf "[%a] %s: arrived at %s" Q.pp t object_id server
  | Role_rejected { object_id; role; reason; _ } ->
      Format.fprintf ppf "[%a] %s: role %s rejected (%s)" Q.pp t object_id
        role reason
  | Spawned { agent; home; _ } ->
      Format.fprintf ppf "[%a] %s: spawned at %s" Q.pp t agent home
  | Migrated { agent; from_; to_; _ } ->
      Format.fprintf ppf "[%a] %s: migrated %s -> %s" Q.pp t agent from_ to_
  | Message_sent { agent; channel; _ } ->
      Format.fprintf ppf "[%a] %s: sent on %s" Q.pp t agent channel
  | Message_received { agent; channel; _ } ->
      Format.fprintf ppf "[%a] %s: received on %s" Q.pp t agent channel
  | Signal_raised { agent; signal; _ } ->
      Format.fprintf ppf "[%a] %s: raised %s" Q.pp t agent signal
  | Completed { agent; _ } ->
      Format.fprintf ppf "[%a] %s: completed" Q.pp t agent
  | Aborted { agent; reason; _ } ->
      Format.fprintf ppf "[%a] %s: aborted (%s)" Q.pp t agent reason
  | Deadlocked { agent; _ } ->
      Format.fprintf ppf "[%a] %s: deadlocked" Q.pp t agent
  | Fault_injected { agent; fault; target; _ } ->
      Format.fprintf ppf "[%a] %s: fault %s on %s" Q.pp t agent
        (fault_name fault) target
  | Server_down { server; _ } ->
      Format.fprintf ppf "[%a] server %s down" Q.pp t server
  | Server_up { server; _ } ->
      Format.fprintf ppf "[%a] server %s up" Q.pp t server
  | Retry_scheduled { agent; attempt; at; _ } ->
      Format.fprintf ppf "[%a] %s: retry %d scheduled for %a" Q.pp t agent
        attempt Q.pp at
  | Gave_up { agent; attempts; _ } ->
      Format.fprintf ppf "[%a] %s: gave up after %d attempts" Q.pp t agent
        attempts
  | Policy_changed { op; version; _ } ->
      Format.fprintf ppf "[%a] policy changed: %s (version %d)" Q.pp t op
        version
  | Run_finished _ -> Format.fprintf ppf "[%a] run finished" Q.pp t
