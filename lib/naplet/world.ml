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

(* Flat event payloads: everything the steady-state loop schedules is
   plain data keyed by interned ids — no closures, so a parked event
   costs a few words and captures nothing.  [Admin] remains only for
   the public [at] API (security-officer interventions are rare and
   inherently arbitrary code). *)
type event =
  | Step of int  (** agent id *)
  | Crash_boundary of { server : string; up : bool }
  | Deliver of { chan : string; value : Sral.Value.t }
  | Recv_deadline of { chan : string; agent : int; thread : int }
  | Admin of (unit -> unit)

type fault_state = {
  injector : Fault.Injector.t;
  resilience : Fault.Resilience.t;
}

(* agent status codes for the SoA status column *)
let st_running = 0
let st_waiting = 1
let st_completed = 2
let st_aborted = 3

(* The world's state is struct-of-arrays: agents and servers are dense
   int ids (see {!Intern}), and each per-agent attribute is a column
   indexed by id, grown geometrically.  Identity data (owner, roles,
   program, machine) sits beside the hot mutable columns (status,
   location, retries); the string names exist only in the arenas and
   round-trip exactly into every emitted trace event. *)
type t = {
  config : config;
  manager : Security_manager.t;
  bus : Obs.Bus.t;
  (* agent columns, indexed by [anames] id; [n_agents] rows live *)
  anames : Intern.t;
  mutable a_owner : string array;
  mutable a_roles : string list array;
  mutable a_home : int array;  (* server id *)
  mutable a_program : Sral.Ast.t array;
  mutable a_machine : Machine.t array;
  mutable a_session : Rbac.Session.t option array;
  mutable a_status : int array;
  mutable a_end : Q.t array;  (* completion time when [st_completed] *)
  mutable a_reason : string array;  (* abort reason when [st_aborted] *)
  mutable a_location : int array;  (* server id, -1 before dispatch *)
  mutable a_retries : int array;
  mutable n_agents : int;
  (* server column, indexed by [snames] id; migration targets that were
     never registered intern an id but keep a [None] slot *)
  snames : Intern.t;
  mutable srv : Server.t option array;
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
      anames = Intern.create ();
      a_owner = [||];
      a_roles = [||];
      a_home = [||];
      a_program = [||];
      a_machine = [||];
      a_session = [||];
      a_status = [||];
      a_end = [||];
      a_reason = [||];
      a_location = [||];
      a_retries = [||];
      n_agents = 0;
      snames = Intern.create ();
      srv = [||];
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
  let mine id = Intern.mem t.anames id in
  Obs.Bus.subscribe t.bus (Metrics.sink ~relevant:mine t.metrics);
  t

let manager t = t.manager
let set_appraisal t appraisal = t.appraisal <- Some appraisal

(* Farmer-style state appraisal at arrival: a corrupted agent is
   quarantined before it can request anything. *)
let appraise t i =
  match t.appraisal with
  | None -> Appraisal.Sound
  | Some appraisal -> Appraisal.appraise appraisal (Machine.env_value t.a_machine.(i))

let grow_servers t needed =
  if needed > Array.length t.srv then begin
    let bigger = Array.make (max 16 (2 * needed)) None in
    Array.blit t.srv 0 bigger 0 (Array.length t.srv);
    t.srv <- bigger
  end

let add_server t s =
  let sid = Intern.intern t.snames (Server.name s) in
  grow_servers t (sid + 1);
  t.srv.(sid) <- Some s

let server_slot t sid = if sid < Array.length t.srv then t.srv.(sid) else None

let server t name =
  match Intern.find t.snames name with
  | None -> None
  | Some sid -> server_slot t sid

(* registered servers in id (registration) order — a straight indexed
   walk; nothing is rebuilt or re-sorted per call *)
let servers t =
  let acc = ref [] in
  for sid = Intern.count t.snames - 1 downto 0 do
    match server_slot t sid with Some s -> acc := s :: !acc | None -> ()
  done;
  !acc

let clock t = t.clock

let status_of t i =
  match t.a_status.(i) with
  | 0 -> Agent.Running
  | 1 -> Agent.Waiting
  | 2 -> Agent.Completed t.a_end.(i)
  | _ -> Agent.Aborted t.a_reason.(i)

(* The compatibility view: an [Agent.t] record synthesized from row
   [i]'s columns.  The machine (and everything reachable from it) is
   shared with the row; the record itself is fresh per call, so
   callers see a read-only snapshot of status/location. *)
let view t i =
  {
    Agent.id = Intern.name t.anames i;
    owner = t.a_owner.(i);
    roles = t.a_roles.(i);
    home = Intern.name t.snames t.a_home.(i);
    program = t.a_program.(i);
    machine = t.a_machine.(i);
    location =
      (let l = t.a_location.(i) in
       if l < 0 then None else Some (Intern.name t.snames l));
    status = status_of t i;
  }

let agent t id =
  match Intern.find t.anames id with
  | Some i when i < t.n_agents -> Some (view t i)
  | _ -> None

(* agents in id (spawn) order — an indexed walk, no sort *)
let agents t = List.init t.n_agents (view t)

let metrics t = t.metrics
let channels t = t.channels
let processed_events t = t.processed

let emit t ev = Obs.Bus.emit t.bus ev

let schedule_step t i ~time = Sim.schedule t.events ~time (Step i)

let at t ~time action = Sim.schedule t.events ~time (Admin action)

let pending_events t = Sim.size t.events

(* Kill switch: forget every pending event; [run]'s next pop sees an
   empty queue and winds the world down. *)
let halt t = Sim.clear t.events

let set_faults ?(resilience = Fault.Resilience.default) t injector =
  t.faults <- Some { injector; resilience };
  (* the security manager fails closed against the crash schedule *)
  Security_manager.set_availability t.manager (fun ~server ~time ->
      Fault.Injector.server_down injector ~server ~time);
  (* crash-window boundaries become observable bus events *)
  let plan = Fault.Injector.plan injector in
  List.iter
    (fun (server, windows) ->
      List.iter
        (fun (w : Fault.Plan.window) ->
          Sim.schedule t.events ~time:w.Fault.Plan.from_
            (Crash_boundary { server; up = false });
          Sim.schedule t.events ~time:w.Fault.Plan.until
            (Crash_boundary { server; up = true }))
        windows)
    plan.Fault.Plan.crashes

let arrive t i ~server_id ~time =
  t.a_location.(i) <- server_id;
  let session, _rejected =
    Security_manager.on_arrival t.manager
      ~object_id:(Intern.name t.anames i)
      ~owner:t.a_owner.(i) ~roles:t.a_roles.(i)
      ~server:(Intern.name t.snames server_id)
      ~time ~program:t.a_program.(i)
  in
  t.a_session.(i) <- Some session

let finish_agent t i status =
  match status with
  | Agent.Completed time ->
      t.a_status.(i) <- st_completed;
      t.a_end.(i) <- time;
      emit t (Obs.Trace.Completed { time; agent = Intern.name t.anames i })
  | Agent.Aborted why ->
      t.a_status.(i) <- st_aborted;
      t.a_reason.(i) <- why;
      (* a killed agent releases whatever it still held: parked channel
         receivers, signal waiters, and its retry bookkeeping *)
      let name = Intern.name t.anames i in
      ignore (Channel.cancel_agent t.channels ~agent:name);
      ignore (Signal_table.cancel_agent t.signals ~agent:name);
      t.a_retries.(i) <- 0;
      emit t (Obs.Trace.Aborted { time = t.clock; agent = name; reason = why })
  | Agent.Running | Agent.Waiting -> ()

let grow_agents t ~program ~machine needed =
  if needed > Array.length t.a_status then begin
    let cap = max 16 (2 * needed) in
    let col a fill =
      let b = Array.make cap fill in
      Array.blit a 0 b 0 t.n_agents;
      b
    in
    t.a_owner <- col t.a_owner "";
    t.a_roles <- col t.a_roles [];
    t.a_home <- col t.a_home (-1);
    t.a_program <- col t.a_program program;
    t.a_machine <- col t.a_machine machine;
    t.a_session <- col t.a_session None;
    t.a_status <- col t.a_status st_running;
    t.a_end <- col t.a_end Q.zero;
    t.a_reason <- col t.a_reason "";
    t.a_location <- col t.a_location (-1);
    t.a_retries <- col t.a_retries 0
  end

let spawn ?team t ~id ~owner ~roles ~home program =
  if Intern.mem t.anames id then
    invalid_arg ("World.spawn: duplicate agent id " ^ id);
  let home_id =
    match Intern.find t.snames home with
    | Some sid when server_slot t sid <> None -> sid
    | _ -> invalid_arg ("World.spawn: unknown home server " ^ home)
  in
  let machine = Machine.create ~fuel:t.config.fuel program in
  let i = Intern.intern t.anames id in
  grow_agents t ~program ~machine (i + 1);
  t.a_owner.(i) <- owner;
  t.a_roles.(i) <- roles;
  t.a_home.(i) <- home_id;
  t.a_program.(i) <- program;
  t.a_machine.(i) <- machine;
  t.a_session.(i) <- None;
  t.a_status.(i) <- st_running;
  t.a_end.(i) <- Q.zero;
  t.a_reason.(i) <- "";
  t.a_location.(i) <- -1;
  t.a_retries.(i) <- 0;
  t.n_agents <- i + 1;
  (match team with
  | Some team ->
      Coordinated.System.join_team
        (Security_manager.control t.manager)
        ~object_id:id ~team
  | None -> ());
  arrive t i ~server_id:home_id ~time:t.clock;
  emit t (Obs.Trace.Spawned { time = t.clock; agent = id; home });
  match appraise t i with
  | Appraisal.Corrupted invariant ->
      finish_agent t i
        (Agent.Aborted (Printf.sprintf "state appraisal failed: %s" invariant))
  | Appraisal.Sound -> schedule_step t i ~time:t.clock

let is_live t i = t.a_status.(i) <= st_waiting

(* Wake a parked (agent, thread): unblock the machine thread and, if
   the whole agent was waiting, get it back on the event queue. *)
let wake_id t i ~thread ~time =
  if is_live t i then begin
    Machine.unblock t.a_machine.(i) ~thread;
    if t.a_status.(i) = st_waiting then begin
      t.a_status.(i) <- st_running;
      schedule_step t i ~time
    end
  end

let wake t ~agent ~thread ~time =
  match Intern.find t.anames agent with
  | None -> ()
  | Some i -> wake_id t i ~thread ~time

let decide_verdict t i ~time a =
  let object_id = Intern.name t.anames i in
  match t.a_session.(i) with
  | Some session ->
      Security_manager.check_session t.manager ~session ~object_id
        ~program:t.a_program.(i) ~time a
  | None ->
      Security_manager.check t.manager ~object_id ~program:t.a_program.(i)
        ~time a

let rec handle_access t i ~thread ~time (a : Sral.Access.t) =
  (* migrate first when the access targets another server *)
  let dest_id = Intern.intern t.snames a.Sral.Access.server in
  let migrated = t.a_location.(i) <> dest_id in
  match t.faults with
  | Some f when migrated -> (
      (* the transport can fail: the destination may be crashed at
         departure, or the hop itself may fault.  Either way the
         migration did not happen; the pending Access stays queued in
         the machine and a later step retries it. *)
      let dest = a.Sral.Access.server in
      let id = Intern.name t.anames i in
      let attempt = 1 + t.a_retries.(i) in
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
          t.a_retries.(i) <- 0;
          emit t (Obs.Trace.Gave_up { time; agent = id; attempts = attempt });
          (match Security_manager.refuse t.manager ~object_id:id ~time a with
          | Coordinated.Decision.Granted -> assert false
          | Coordinated.Decision.Denied reason -> (
              match t.config.deny_policy with
              | Skip_access ->
                  Machine.skip_request t.a_machine.(i) ~thread;
                  `Continue_at time
              | Abort_agent ->
                  `Abort
                    (Format.asprintf "%a" Coordinated.Decision.pp_reason reason)))
        end
        else begin
          t.a_retries.(i) <- attempt;
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
        t.a_retries.(i) <- 0;
        perform_migration t i ~thread ~time ~dest_id a
      end)
  | _ ->
      if migrated then perform_migration t i ~thread ~time ~dest_id a
      else decide_access t i ~thread ~time ~dest_id a

and perform_migration t i ~thread ~time ~dest_id (a : Sral.Access.t) =
  let origin =
    let l = t.a_location.(i) in
    Intern.name t.snames (if l < 0 then t.a_home.(i) else l)
  in
  let arrival = Q.add time t.config.migration_latency in
  arrive t i ~server_id:dest_id ~time:arrival;
  emit t
    (Obs.Trace.Migrated
       {
         time = arrival;
         agent = Intern.name t.anames i;
         from_ = origin;
         to_ = a.Sral.Access.server;
       });
  match appraise t i with
  | Appraisal.Corrupted invariant ->
      `Abort (Printf.sprintf "state appraisal failed: %s" invariant)
  | Appraisal.Sound -> decide_access t i ~thread ~time:arrival ~dest_id a

and decide_access t i ~thread ~time ~dest_id (a : Sral.Access.t) =
  (* the verdict reaches the trace and the metrics through the bus:
     [System.check] publishes a [Decision] event, the metrics sink
     subscribed in [create] folds it in *)
  match decide_verdict t i ~time a with
  | Coordinated.Decision.Granted ->
      let finish =
        match server_slot t dest_id with
        | Some srv ->
            let _start, finish = Server.reserve srv ~now:time in
            finish
        | None -> Q.add time Q.one
      in
      Machine.complete t.a_machine.(i) ~thread;
      `Continue_at finish
  | Coordinated.Decision.Denied reason -> (
      match t.config.deny_policy with
      | Skip_access ->
          Machine.skip_request t.a_machine.(i) ~thread;
          `Continue_at time
      | Abort_agent ->
          `Abort (Format.asprintf "%a" Coordinated.Decision.pp_reason reason))

(* Abandon a parked request (receive timeout): the thread resumes but
   the request is skipped rather than fulfilled. *)
let abandon t i ~thread ~time =
  if is_live t i then begin
    Machine.unblock t.a_machine.(i) ~thread;
    Machine.skip_request t.a_machine.(i) ~thread;
    if t.a_status.(i) = st_waiting then begin
      t.a_status.(i) <- st_running;
      schedule_step t i ~time
    end
  end

let deliver t ~chan v ~time =
  let waiters = Channel.send t.channels ~chan v in
  List.iter
    (fun (w : Channel.waiter) ->
      wake t ~agent:w.Channel.agent ~thread:w.Channel.thread ~time)
    waiters

let handle_request t i ~thread ~time request =
  match request with
  | Machine.Access a -> handle_access t i ~thread ~time a
  | Machine.Send (chan, v) ->
      (* the send itself always happens; the network decides what the
         coalition sees of it *)
      let id = Intern.name t.anames i in
      emit t (Obs.Trace.Message_sent { time; agent = id; channel = chan });
      (let fate =
         match t.faults with
         | None -> Fault.Injector.Deliver
         | Some f -> Fault.Injector.channel_fate f.injector ~agent:id ~chan ~time
       in
       let fault kind =
         emit t
           (Obs.Trace.Fault_injected { time; agent = id; fault = kind; target = chan })
       in
       match fate with
       | Fault.Injector.Deliver -> deliver t ~chan v ~time
       | Fault.Injector.Drop -> fault Obs.Trace.Channel_drop
       | Fault.Injector.Delay d ->
           fault Obs.Trace.Channel_delay;
           Sim.schedule t.events ~time:(Q.add time d)
             (Deliver { chan; value = v })
       | Fault.Injector.Duplicate ->
           fault Obs.Trace.Channel_duplicate;
           deliver t ~chan v ~time;
           deliver t ~chan v ~time);
      Machine.complete t.a_machine.(i) ~thread;
      `Continue_at time
  | Machine.Recv (chan, var) -> (
      match Channel.try_recv t.channels ~chan with
      | Some v ->
          emit t
            (Obs.Trace.Message_received
               { time; agent = Intern.name t.anames i; channel = chan });
          Machine.complete_recv t.a_machine.(i) ~thread ~var v;
          `Continue_at time
      | None ->
          Machine.block t.a_machine.(i) ~thread;
          let waiter = { Channel.agent = Intern.name t.anames i; thread } in
          Channel.park t.channels ~chan waiter;
          (match t.faults with
          | Some { resilience = { Fault.Resilience.recv_timeout = Some d; _ };
                   _ } ->
              (* if still parked at the deadline, give up on the message *)
              Sim.schedule t.events ~time:(Q.add time d)
                (Recv_deadline { chan; agent = i; thread })
          | _ -> ());
          `Continue_at time)
  | Machine.Signal x ->
      let id = Intern.name t.anames i in
      let lost =
        match t.faults with
        | None -> false
        | Some f -> Fault.Injector.signal_lost f.injector ~agent:id ~signal:x ~time
      in
      if lost then
        emit t
          (Obs.Trace.Fault_injected
             { time; agent = id; fault = Obs.Trace.Signal_loss; target = x })
      else begin
        emit t (Obs.Trace.Signal_raised { time; agent = id; signal = x });
        let waiters = Signal_table.raise_signal t.signals x in
        List.iter
          (fun (w : Signal_table.waiter) ->
            wake t ~agent:w.Signal_table.agent ~thread:w.Signal_table.thread
              ~time)
          waiters
      end;
      Machine.complete t.a_machine.(i) ~thread;
      `Continue_at time
  | Machine.Wait x ->
      if Signal_table.is_raised t.signals x then begin
        Machine.complete t.a_machine.(i) ~thread;
        `Continue_at time
      end
      else begin
        Machine.block t.a_machine.(i) ~thread;
        Signal_table.park t.signals x
          { Signal_table.agent = Intern.name t.anames i; thread };
        `Continue_at time
      end

(* While an agent sits on a crashed server its execution is suspended:
   the step is deferred to the end of the crash window.  (The security
   manager would deny anything it tried anyway — this models the host
   being down, not just unreachable.) *)
let frozen_until t i ~time =
  match t.faults with
  | Some f when t.a_location.(i) >= 0 ->
      Fault.Injector.recovery f.injector
        ~server:(Intern.name t.snames t.a_location.(i))
        ~time
  | _ -> None

let process_step t i ~time =
  if t.a_status.(i) = st_running then
    match frozen_until t i ~time with
    | Some recovery -> schedule_step t i ~time:recovery
    | None -> (
        match Machine.step t.a_machine.(i) with
        | Machine.Finished -> finish_agent t i (Agent.Completed time)
        | Machine.Fault msg -> finish_agent t i (Agent.Aborted msg)
        | Machine.All_blocked -> t.a_status.(i) <- st_waiting
        | Machine.Ready { thread; request; silent_steps } -> (
            let time =
              Q.add time (Q.mul (Q.of_int silent_steps) t.config.step_cost)
            in
            match handle_request t i ~thread ~time request with
            | `Continue_at next -> schedule_step t i ~time:next
            | `Abort why -> finish_agent t i (Agent.Aborted why)))

let run t =
  let budget = ref t.config.max_events in
  let rec loop () =
    if !budget <= 0 then ()
    else
      match Sim.pop t.events with
      | None -> ()
      | Some (time, payload) ->
          decr budget;
          t.processed <- t.processed + 1;
          t.clock <- Q.max t.clock time;
          (match payload with
          | Step i -> process_step t i ~time:t.clock
          | Crash_boundary { server; up = false } ->
              emit t (Obs.Trace.Server_down { time = t.clock; server })
          | Crash_boundary { server; up = true } ->
              emit t (Obs.Trace.Server_up { time = t.clock; server })
          | Deliver { chan; value } -> deliver t ~chan value ~time:t.clock
          | Recv_deadline { chan; agent = i; thread } ->
              let waiter =
                { Channel.agent = Intern.name t.anames i; thread }
              in
              if Channel.cancel t.channels ~chan waiter then begin
                emit t
                  (Obs.Trace.Fault_injected
                     {
                       time = t.clock;
                       agent = waiter.Channel.agent;
                       fault = Obs.Trace.Recv_timeout;
                       target = chan;
                     });
                abandon t i ~thread ~time:t.clock
              end
          | Admin action -> action ());
          loop ()
  in
  loop ();
  (* deadlock sweep in id order — deterministic by construction *)
  for i = 0 to t.n_agents - 1 do
    if t.a_status.(i) = st_waiting then
      emit t
        (Obs.Trace.Deadlocked { time = t.clock; agent = Intern.name t.anames i })
  done;
  emit t (Obs.Trace.Run_finished { time = t.clock });
  t.metrics
