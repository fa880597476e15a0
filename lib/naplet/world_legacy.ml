(* The pre-SoA emulation engine, kept verbatim as the differential
   oracle for the rebuilt [World]: hashtable-of-records state, closure
   payloads in the event queue.  The E19 harness and the test suite
   run randomized coalitions through both engines and require the
   exported traces to be byte-identical; once that gate has survived
   long enough, this module is scheduled for deletion.

   One deliberate canonicalization vs. the historical code: the
   end-of-run deadlock sweep walks agents in spawn order (the rebuilt
   engine's id order) rather than [Hashtbl.iter] order, which was
   unspecified and could never have been compared across engines. *)

module Q = Temporal.Q

type deny_policy = Skip_access | Abort_agent

type config = {
  migration_latency : Q.t;
  step_cost : Q.t;
  deny_policy : deny_policy;
  fuel : int;
  max_events : int;
}

let default_config =
  {
    migration_latency = Q.of_int 5;
    step_cost = Q.make 1 100;
    deny_policy = Skip_access;
    fuel = 100_000;
    max_events = 1_000_000;
  }

type event = Step of string | Admin of (unit -> unit)

(* Installed fault machinery: the injector answers "does this fault
   fire?", the resilience policy says how to react, and [retries]
   tracks each agent's consecutive failed migration attempts. *)
type fault_state = {
  injector : Fault.Injector.t;
  resilience : Fault.Resilience.t;
  retries : (string, int) Hashtbl.t;
}

type t = {
  config : config;
  manager : Security_manager.t;
  bus : Obs.Bus.t;
  servers : (string, Server.t) Hashtbl.t;
  agents : (string, Agent.t) Hashtbl.t;
  mutable spawn_order : string list;  (* newest first *)
  channels : Channel.t;
  signals : Signal_table.t;
  events : event Sim.t;
  mutable clock : Q.t;
  mutable appraisal : Appraisal.t option;
  mutable faults : fault_state option;
  metrics : Metrics.t;
  mutable processed : int;
}

let create ?(config = default_config) control =
  let t =
    {
      config;
      manager = Security_manager.create control;
      bus = Coordinated.System.bus control;
      servers = Hashtbl.create 8;
      agents = Hashtbl.create 8;
      spawn_order = [];
      channels = Channel.create ();
      signals = Signal_table.create ();
      events = Sim.create ();
      clock = Q.zero;
      appraisal = None;
      faults = None;
      metrics = Metrics.create ();
      processed = 0;
    }
  in
  (* the world's metrics consume the bus rather than being hand-wired
     into the simulation loop; the membership filter keeps a shared
     control's foreign traffic out of this world's books *)
  let mine id = Hashtbl.mem t.agents id in
  Obs.Bus.subscribe t.bus (Metrics.sink ~relevant:mine t.metrics);
  t

let manager t = t.manager
let set_appraisal t appraisal = t.appraisal <- Some appraisal

(* Farmer-style state appraisal at arrival: a corrupted agent is
   quarantined before it can request anything. *)
let appraise t (agent : Agent.t) =
  match t.appraisal with
  | None -> Appraisal.Sound
  | Some appraisal ->
      Appraisal.appraise appraisal (Machine.env_value agent.Agent.machine)
let add_server t s = Hashtbl.replace t.servers (Server.name s) s
let server t name = Hashtbl.find_opt t.servers name

let servers t =
  List.sort
    (fun s1 s2 -> String.compare (Server.name s1) (Server.name s2))
    (Hashtbl.fold (fun _ s acc -> s :: acc) t.servers [])

let clock t = t.clock
let agent t id = Hashtbl.find_opt t.agents id

let agents t =
  List.sort
    (fun (a1 : Agent.t) a2 -> String.compare a1.Agent.id a2.Agent.id)
    (Hashtbl.fold (fun _ a acc -> a :: acc) t.agents [])

let metrics t = t.metrics
let channels t = t.channels
let processed_events t = t.processed

let emit t ev = Obs.Bus.emit t.bus ev

let schedule_step t id ~time = Sim.schedule t.events ~time (Step id)

let at t ~time action = Sim.schedule t.events ~time (Admin action)

let pending_events t = Sim.size t.events

(* Kill switch: forget every pending event; [run]'s next pop sees an
   empty queue and winds the world down. *)
let halt t = Sim.clear t.events

let set_faults ?(resilience = Fault.Resilience.default) t injector =
  t.faults <- Some { injector; resilience; retries = Hashtbl.create 8 };
  (* the security manager fails closed against the crash schedule *)
  Security_manager.set_availability t.manager (fun ~server ~time ->
      Fault.Injector.server_down injector ~server ~time);
  (* crash-window boundaries become observable bus events *)
  let plan = Fault.Injector.plan injector in
  List.iter
    (fun (server, windows) ->
      List.iter
        (fun (w : Fault.Plan.window) ->
          at t ~time:w.Fault.Plan.from_ (fun () ->
              emit t (Obs.Trace.Server_down { time = t.clock; server }));
          at t ~time:w.Fault.Plan.until (fun () ->
              emit t (Obs.Trace.Server_up { time = t.clock; server })))
        windows)
    plan.Fault.Plan.crashes

let arrive t (agent : Agent.t) ~server ~time =
  agent.Agent.location <- Some server;
  ignore
    (Security_manager.on_arrival t.manager ~object_id:agent.Agent.id
       ~owner:agent.Agent.owner ~roles:agent.Agent.roles ~server ~time
       ~program:agent.Agent.program)

let finish_agent t (agent : Agent.t) status =
  agent.Agent.status <- status;
  match status with
  | Agent.Completed time ->
      emit t (Obs.Trace.Completed { time; agent = agent.Agent.id })
  | Agent.Aborted why ->
      (* a killed agent releases whatever it still held: parked channel
         receivers, signal waiters, and its retry bookkeeping *)
      ignore (Channel.cancel_agent t.channels ~agent:agent.Agent.id);
      ignore (Signal_table.cancel_agent t.signals ~agent:agent.Agent.id);
      (match t.faults with
      | Some f -> Hashtbl.remove f.retries agent.Agent.id
      | None -> ());
      emit t
        (Obs.Trace.Aborted { time = t.clock; agent = agent.Agent.id; reason = why })
  | Agent.Running | Agent.Waiting -> ()

let spawn ?team t ~id ~owner ~roles ~home program =
  if Hashtbl.mem t.agents id then
    invalid_arg ("World.spawn: duplicate agent id " ^ id);
  if not (Hashtbl.mem t.servers home) then
    invalid_arg ("World.spawn: unknown home server " ^ home);
  let agent =
    Agent.make ~id ~owner ~roles ~home ~fuel:t.config.fuel program
  in
  Hashtbl.add t.agents id agent;
  t.spawn_order <- id :: t.spawn_order;
  (match team with
  | Some team ->
      Coordinated.System.join_team
        (Security_manager.control t.manager)
        ~object_id:id ~team
  | None -> ());
  arrive t agent ~server:home ~time:t.clock;
  emit t (Obs.Trace.Spawned { time = t.clock; agent = id; home });
  match appraise t agent with
  | Appraisal.Corrupted invariant ->
      finish_agent t agent
        (Agent.Aborted (Printf.sprintf "state appraisal failed: %s" invariant))
  | Appraisal.Sound -> schedule_step t id ~time:t.clock

(* Wake a parked (agent, thread): unblock the machine thread and, if
   the whole agent was waiting, get it back on the event queue. *)
let wake t ~agent:agent_id ~thread ~time =
  match Hashtbl.find_opt t.agents agent_id with
  | None -> ()
  | Some agent ->
      if Agent.is_live agent then begin
        Machine.unblock agent.Agent.machine ~thread;
        match agent.Agent.status with
        | Agent.Waiting ->
            agent.Agent.status <- Agent.Running;
            schedule_step t agent_id ~time
        | Agent.Running | Agent.Completed _ | Agent.Aborted _ -> ()
      end

let rec handle_access t (agent : Agent.t) ~thread ~time (a : Sral.Access.t) =
  (* migrate first when the access targets another server *)
  let migrated = agent.Agent.location <> Some a.Sral.Access.server in
  match t.faults with
  | Some f when migrated -> (
      (* the transport can fail: the destination may be crashed at
         departure, or the hop itself may fault.  Either way the
         migration did not happen; the pending Access stays queued in
         the machine and a later step retries it. *)
      let dest = a.Sral.Access.server in
      let id = agent.Agent.id in
      let attempt =
        1 + Option.value ~default:0 (Hashtbl.find_opt f.retries id)
      in
      let unreachable = Fault.Injector.server_down f.injector ~server:dest ~time in
      let flaky =
        (not unreachable)
        && Fault.Injector.migration_fails f.injector ~agent:id ~dest ~attempt
             ~time
      in
      if unreachable || flaky then begin
        emit t
          (Obs.Trace.Fault_injected
             {
               time;
               agent = id;
               fault =
                 (if unreachable then Obs.Trace.Server_unreachable
                  else Obs.Trace.Migration_failure);
               target = dest;
             });
        if attempt > f.resilience.Fault.Resilience.max_retries then begin
          (* budget exhausted: give up, and fail *closed* — the refusal
             is minted through the security manager so it lands on the
             audit record like any other denial *)
          Hashtbl.remove f.retries id;
          emit t (Obs.Trace.Gave_up { time; agent = id; attempts = attempt });
          (match
             Security_manager.refuse t.manager ~object_id:id ~time a
           with
          | Coordinated.Decision.Granted -> assert false
          | Coordinated.Decision.Denied reason -> (
              match t.config.deny_policy with
              | Skip_access ->
                  Machine.skip_request agent.Agent.machine ~thread;
                  `Continue_at time
              | Abort_agent ->
                  `Abort
                    (Format.asprintf "%a" Coordinated.Decision.pp_reason reason)))
        end
        else begin
          Hashtbl.replace f.retries id attempt;
          let backoff =
            Fault.Injector.backoff f.injector f.resilience ~agent:id ~attempt
          in
          let retry_at = Q.add time backoff in
          emit t
            (Obs.Trace.Retry_scheduled { time; agent = id; attempt; at = retry_at });
          `Continue_at retry_at
        end
      end
      else begin
        Hashtbl.remove f.retries id;
        perform_migration t agent ~thread ~time a
      end)
  | _ ->
      if migrated then perform_migration t agent ~thread ~time a
      else decide_access t agent ~thread ~time a

and perform_migration t (agent : Agent.t) ~thread ~time (a : Sral.Access.t) =
  let origin =
    match agent.Agent.location with Some s -> s | None -> agent.Agent.home
  in
  let arrival = Q.add time t.config.migration_latency in
  arrive t agent ~server:a.Sral.Access.server ~time:arrival;
  emit t
    (Obs.Trace.Migrated
       {
         time = arrival;
         agent = agent.Agent.id;
         from_ = origin;
         to_ = a.Sral.Access.server;
       });
  match appraise t agent with
  | Appraisal.Corrupted invariant ->
      `Abort (Printf.sprintf "state appraisal failed: %s" invariant)
  | Appraisal.Sound -> decide_access t agent ~thread ~time:arrival a

and decide_access t (agent : Agent.t) ~thread ~time (a : Sral.Access.t) =
  (* the verdict reaches the trace and the metrics through the bus:
     [System.check] publishes a [Decision] event, the metrics sink
     subscribed in [create] folds it in *)
  let verdict =
    Security_manager.check t.manager ~object_id:agent.Agent.id
      ~program:agent.Agent.program ~time a
  in
  match verdict with
  | Coordinated.Decision.Granted ->
      let finish =
        match server t a.Sral.Access.server with
        | Some srv ->
            let _start, finish = Server.reserve srv ~now:time in
            finish
        | None -> Q.add time Q.one
      in
      Machine.complete agent.Agent.machine ~thread;
      `Continue_at finish
  | Coordinated.Decision.Denied reason -> (
      match t.config.deny_policy with
      | Skip_access ->
          Machine.skip_request agent.Agent.machine ~thread;
          `Continue_at time
      | Abort_agent ->
          `Abort (Format.asprintf "%a" Coordinated.Decision.pp_reason reason))

(* Abandon a parked request (receive timeout): the thread resumes but
   the request is skipped rather than fulfilled. *)
let abandon t ~agent:agent_id ~thread ~time =
  match Hashtbl.find_opt t.agents agent_id with
  | None -> ()
  | Some agent ->
      if Agent.is_live agent then begin
        Machine.unblock agent.Agent.machine ~thread;
        Machine.skip_request agent.Agent.machine ~thread;
        match agent.Agent.status with
        | Agent.Waiting ->
            agent.Agent.status <- Agent.Running;
            schedule_step t agent_id ~time
        | Agent.Running | Agent.Completed _ | Agent.Aborted _ -> ()
      end

let deliver t ~chan v ~time =
  let waiters = Channel.send t.channels ~chan v in
  List.iter
    (fun (w : Channel.waiter) ->
      wake t ~agent:w.Channel.agent ~thread:w.Channel.thread ~time)
    waiters

let handle_request t (agent : Agent.t) ~thread ~time request =
  match request with
  | Machine.Access a -> handle_access t agent ~thread ~time a
  | Machine.Send (chan, v) ->
      (* the send itself always happens; the network decides what the
         coalition sees of it *)
      emit t
        (Obs.Trace.Message_sent { time; agent = agent.Agent.id; channel = chan });
      (let fate =
         match t.faults with
         | None -> Fault.Injector.Deliver
         | Some f ->
             Fault.Injector.channel_fate f.injector ~agent:agent.Agent.id
               ~chan ~time
       in
       let fault kind =
         emit t
           (Obs.Trace.Fault_injected
              { time; agent = agent.Agent.id; fault = kind; target = chan })
       in
       match fate with
       | Fault.Injector.Deliver -> deliver t ~chan v ~time
       | Fault.Injector.Drop -> fault Obs.Trace.Channel_drop
       | Fault.Injector.Delay d ->
           fault Obs.Trace.Channel_delay;
           at t ~time:(Q.add time d) (fun () ->
               deliver t ~chan v ~time:t.clock)
       | Fault.Injector.Duplicate ->
           fault Obs.Trace.Channel_duplicate;
           deliver t ~chan v ~time;
           deliver t ~chan v ~time);
      Machine.complete agent.Agent.machine ~thread;
      `Continue_at time
  | Machine.Recv (chan, var) -> (
      match Channel.try_recv t.channels ~chan with
      | Some v ->
          emit t
            (Obs.Trace.Message_received
               { time; agent = agent.Agent.id; channel = chan });
          Machine.complete_recv agent.Agent.machine ~thread ~var v;
          `Continue_at time
      | None ->
          Machine.block agent.Agent.machine ~thread;
          let waiter = { Channel.agent = agent.Agent.id; thread } in
          Channel.park t.channels ~chan waiter;
          (match t.faults with
          | Some { resilience = { Fault.Resilience.recv_timeout = Some d; _ };
                   _ } ->
              (* if still parked at the deadline, give up on the message *)
              at t ~time:(Q.add time d) (fun () ->
                  if Channel.cancel t.channels ~chan waiter then begin
                    emit t
                      (Obs.Trace.Fault_injected
                         {
                           time = t.clock;
                           agent = agent.Agent.id;
                           fault = Obs.Trace.Recv_timeout;
                           target = chan;
                         });
                    abandon t ~agent:agent.Agent.id ~thread ~time:t.clock
                  end)
          | _ -> ());
          `Continue_at time)
  | Machine.Signal x ->
      let lost =
        match t.faults with
        | None -> false
        | Some f ->
            Fault.Injector.signal_lost f.injector ~agent:agent.Agent.id
              ~signal:x ~time
      in
      if lost then
        emit t
          (Obs.Trace.Fault_injected
             { time; agent = agent.Agent.id; fault = Obs.Trace.Signal_loss;
               target = x })
      else begin
        emit t
          (Obs.Trace.Signal_raised { time; agent = agent.Agent.id; signal = x });
        let waiters = Signal_table.raise_signal t.signals x in
        List.iter
          (fun (w : Signal_table.waiter) ->
            wake t ~agent:w.Signal_table.agent ~thread:w.Signal_table.thread
              ~time)
          waiters
      end;
      Machine.complete agent.Agent.machine ~thread;
      `Continue_at time
  | Machine.Wait x ->
      if Signal_table.is_raised t.signals x then begin
        Machine.complete agent.Agent.machine ~thread;
        `Continue_at time
      end
      else begin
        Machine.block agent.Agent.machine ~thread;
        Signal_table.park t.signals x
          { Signal_table.agent = agent.Agent.id; thread };
        `Continue_at time
      end

(* While an agent sits on a crashed server its execution is suspended:
   the step is deferred to the end of the crash window.  (The security
   manager would deny anything it tried anyway — this models the host
   being down, not just unreachable.) *)
let frozen_until t (agent : Agent.t) ~time =
  match (t.faults, agent.Agent.location) with
  | Some f, Some server -> Fault.Injector.recovery f.injector ~server ~time
  | _ -> None

let process_step t id ~time =
  match Hashtbl.find_opt t.agents id with
  | None -> ()
  | Some agent -> (
      if agent.Agent.status = Agent.Running then
        match frozen_until t agent ~time with
        | Some recovery -> schedule_step t id ~time:recovery
        | None -> (
        match Machine.step agent.Agent.machine with
        | Machine.Finished -> finish_agent t agent (Agent.Completed time)
        | Machine.Fault msg -> finish_agent t agent (Agent.Aborted msg)
        | Machine.All_blocked -> agent.Agent.status <- Agent.Waiting
        | Machine.Ready { thread; request; silent_steps } -> (
            let time =
              Q.add time (Q.mul (Q.of_int silent_steps) t.config.step_cost)
            in
            match handle_request t agent ~thread ~time request with
            | `Continue_at next -> schedule_step t id ~time:next
            | `Abort why -> finish_agent t agent (Agent.Aborted why))))

let run t =
  let budget = ref t.config.max_events in
  let rec loop () =
    if !budget <= 0 then ()
    else
      match Sim.pop t.events with
      | None -> ()
      | Some (time, Step id) ->
          decr budget;
          t.processed <- t.processed + 1;
          t.clock <- Q.max t.clock time;
          process_step t id ~time:t.clock;
          loop ()
      | Some (time, Admin action) ->
          decr budget;
          t.processed <- t.processed + 1;
          t.clock <- Q.max t.clock time;
          action ();
          loop ()
  in
  loop ();
  List.iter
    (fun id ->
      match Hashtbl.find_opt t.agents id with
      | Some ({ Agent.status = Agent.Waiting; _ } as agent) ->
          emit t (Obs.Trace.Deadlocked { time = t.clock; agent = agent.Agent.id })
      | _ -> ())
    (List.rev t.spawn_order);
  emit t (Obs.Trace.Run_finished { time = t.clock });
  t.metrics
