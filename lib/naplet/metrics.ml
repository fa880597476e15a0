type t = {
  mutable granted : int;
  mutable denied : int;
  mutable denied_rbac : int;
  mutable denied_spatial : int;
  mutable denied_temporal : int;
  mutable denied_unavailable : int;
  mutable migrations : int;
  mutable messages : int;
  mutable signals : int;
  mutable completed_agents : int;
  mutable aborted_agents : int;
  mutable deadlocked_agents : int;
  mutable faults_injected : int;
  mutable retries : int;
  mutable gave_up : int;
  mutable end_time : Temporal.Q.t;
}

let create () =
  {
    granted = 0;
    denied = 0;
    denied_rbac = 0;
    denied_spatial = 0;
    denied_temporal = 0;
    denied_unavailable = 0;
    migrations = 0;
    messages = 0;
    signals = 0;
    completed_agents = 0;
    aborted_agents = 0;
    deadlocked_agents = 0;
    faults_injected = 0;
    retries = 0;
    gave_up = 0;
    end_time = Temporal.Q.zero;
  }

let total_accesses m = m.granted + m.denied

let grant_rate m =
  let n = total_accesses m in
  if n = 0 then None else Some (float_of_int m.granted /. float_of_int n)

let record_verdict m = function
  | Obs.Verdict.Granted -> m.granted <- m.granted + 1
  | Obs.Verdict.Denied reason -> (
      m.denied <- m.denied + 1;
      match reason with
      | Obs.Verdict.Rbac_denied _ -> m.denied_rbac <- m.denied_rbac + 1
      | Obs.Verdict.Spatial_violation _ ->
          m.denied_spatial <- m.denied_spatial + 1
      | Obs.Verdict.Temporal_expired _ | Obs.Verdict.Not_active _
      | Obs.Verdict.Not_arrived ->
          m.denied_temporal <- m.denied_temporal + 1
      | Obs.Verdict.Server_unavailable _ ->
          m.denied_unavailable <- m.denied_unavailable + 1)

let record m = function
  | Obs.Trace.Decision { verdict; _ } -> record_verdict m verdict
  | Obs.Trace.Migrated _ -> m.migrations <- m.migrations + 1
  | Obs.Trace.Message_sent _ -> m.messages <- m.messages + 1
  | Obs.Trace.Signal_raised _ -> m.signals <- m.signals + 1
  | Obs.Trace.Completed _ -> m.completed_agents <- m.completed_agents + 1
  | Obs.Trace.Aborted _ -> m.aborted_agents <- m.aborted_agents + 1
  | Obs.Trace.Deadlocked _ -> m.deadlocked_agents <- m.deadlocked_agents + 1
  | Obs.Trace.Fault_injected _ -> m.faults_injected <- m.faults_injected + 1
  | Obs.Trace.Retry_scheduled _ -> m.retries <- m.retries + 1
  | Obs.Trace.Gave_up _ -> m.gave_up <- m.gave_up + 1
  | Obs.Trace.Run_finished { time } -> m.end_time <- time
  | _ -> ()

let pp_rate ppf m =
  match grant_rate m with
  | None -> Format.pp_print_string ppf "n/a"
  | Some rate -> Format.fprintf ppf "%.2f" rate

let pp ppf m =
  Format.fprintf ppf
    "@[<v>accesses: %d granted, %d denied (rate %a; rbac %d, spatial %d, \
     temporal %d, unavailable %d)@,\
     migrations: %d, messages: %d, signals: %d@,\
     agents: %d completed, %d aborted, %d deadlocked@,\
     faults: %d injected, %d retries, %d gave up@,\
     simulated time: %a@]"
    m.granted m.denied pp_rate m m.denied_rbac m.denied_spatial
    m.denied_temporal m.denied_unavailable m.migrations m.messages m.signals
    m.completed_agents m.aborted_agents m.deadlocked_agents m.faults_injected
    m.retries m.gave_up Temporal.Q.pp m.end_time
