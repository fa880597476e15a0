module Q = Temporal.Q

type obj = {
  id : string;
  owner : string;
  roles : string list;
  program : Sral.Ast.t;
}

type event =
  | Arrive of string * string
  | Check of string * Sral.Access.t
  | Activate of string * string
  | Deactivate of string * string
  | Join of string * string
  | Refresh of string
  | Add_binding of Coordinated.Perm_binding.t

type t = {
  users : string list;
  roles : string list;
  grants : (string * Rbac.Perm.t) list;
  assignments : (string * string) list;
  bindings : Coordinated.Perm_binding.t list;
  objects : obj list;
  events : event list;
  plan : Fault.Plan.t option;
}

let subject = function
  | Arrive (id, _)
  | Check (id, _)
  | Activate (id, _)
  | Deactivate (id, _)
  | Join (id, _)
  | Refresh id ->
      Some id
  | Add_binding _ -> None

(* Events every shard must replay regardless of ownership: they mutate
   state that decisions on *any* object may consult.  Add_binding grows
   the shared binding store; Join keeps the team rosters (and
   teams_version, which team residuals and cached companion lists are
   stamped with) identical on every shard.  Both emit nothing on the
   bus, so replaying them everywhere cannot perturb the merged trace. *)
let broadcast = function Add_binding _ | Join _ -> true | _ -> false

let checks t =
  List.length (List.filter (function Check _ -> true | _ -> false) t.events)

let policy_of t =
  let p = Rbac.Policy.create () in
  List.iter (Rbac.Policy.add_user p) t.users;
  List.iter (Rbac.Policy.add_role p) t.roles;
  List.iter (fun (r, perm) -> Rbac.Policy.grant p r perm) t.grants;
  List.iter (fun (u, r) -> Rbac.Policy.assign_user p u r) t.assignments;
  p

let system ?mode t =
  Coordinated.System.create ?mode ~bindings:t.bindings (policy_of t)

type step = {
  index : int;
  verdict : string option;
  trace : Obs.Trace.event list;
}

type slice = { steps : step list; granted : int; denied : int; log : string }

(* First [n] elements of a head-reversed accumulator, back in emission
   order — the trace chunk one step produced. *)
let chunk_of n rev_acc =
  let rec go n acc = function
    | _ when n = 0 -> acc
    | e :: rest -> go (n - 1) (e :: acc) rest
    | [] -> acc
  in
  go n [] rev_acc

let replay ~control ~owns t =
  let bus = Coordinated.System.bus control in
  let log = Coordinated.Audit_log.attach bus in
  let captured = ref [] and captured_n = ref 0 in
  Obs.Bus.subscribe bus
    (Obs.Sink.make ~name:"shard-capture" (fun ev ->
         captured := ev :: !captured;
         incr captured_n));
  let sessions = Hashtbl.create 8 in
  (* indexed once per replay — big coalitions make the [List.find]
     this replaces quadratic over the event stream.  First binding
     wins, like [List.find] did, should an id ever repeat. *)
  let by_id = Hashtbl.create (List.length t.objects) in
  List.iter
    (fun o -> if not (Hashtbl.mem by_id o.id) then Hashtbl.add by_id o.id o)
    t.objects;
  let find_obj id = Hashtbl.find by_id id in
  let session_of id =
    match Hashtbl.find_opt sessions id with
    | Some s -> s
    | None ->
        let o = find_obj id in
        let s = Coordinated.System.new_session control ~user:o.owner in
        List.iter
          (fun r ->
            try Rbac.Session.activate s r with
            | Rbac.Session.Not_authorized _ | Rbac.Session.Dsd_violation _ ->
                ())
          o.roles;
        Hashtbl.add sessions id s;
        s
  in
  let down server time =
    match t.plan with
    | None -> false
    | Some plan -> Fault.Plan.server_down plan ~server ~time
  in
  let steps = ref [] in
  List.iteri
    (fun index event ->
      let time = Q.of_int (index + 1) in
      let before = !captured_n in
      let verdict = ref None in
      let owned =
        match subject event with Some id -> owns id | None -> true
      in
      (match event with
      | Add_binding b -> Coordinated.System.add_binding control b
      | Join (id, team) ->
          Coordinated.System.join_team control ~object_id:id ~team
      | Arrive (id, server) when owned ->
          (* a crashed server never records the arrival; the trace
             carries the injected fault instead, deterministically *)
          if down server time then
            Obs.Bus.emit bus
              (Obs.Trace.Fault_injected
                 {
                   time;
                   agent = id;
                   fault = Obs.Trace.Server_unreachable;
                   target = server;
                 })
          else Coordinated.System.arrive control ~object_id:id ~server ~time
      | Activate (id, r) when owned -> (
          try Rbac.Session.activate (session_of id) r with
          | Rbac.Session.Not_authorized _ | Rbac.Session.Dsd_violation _ -> ()
          )
      | Deactivate (id, r) when owned ->
          Rbac.Session.deactivate (session_of id) r
      | Refresh id when owned ->
          Coordinated.System.refresh control ~session:(session_of id)
            ~object_id:id ~program:(find_obj id).program ~time
      | Check (id, access) when owned ->
          let v =
            let server = access.Sral.Access.server in
            if down server time then begin
              (* fail closed, exactly as the Naplet security manager
                 does: mint the denial and publish it on the bus so the
                 audit log records it *)
              let v =
                Coordinated.Decision.Denied
                  (Coordinated.Decision.Server_unavailable server)
              in
              Obs.Bus.emit bus
                (Obs.Trace.Decision { time; object_id = id; access; verdict = v });
              v
            end
            else
              Coordinated.System.check control ~session:(session_of id)
                ~object_id:id ~program:(find_obj id).program ~time access
          in
          verdict :=
            Some (Format.asprintf "%a" Coordinated.Decision.pp_verdict v)
      | Arrive _ | Activate _ | Deactivate _ | Refresh _ | Check _ -> ());
      if owned then
        steps :=
          {
            index;
            verdict = !verdict;
            trace = chunk_of (!captured_n - before) !captured;
          }
          :: !steps)
    t.events;
  {
    steps = List.rev !steps;
    granted = Coordinated.Audit_log.granted_count log;
    denied = Coordinated.Audit_log.denied_count log;
    log = Format.asprintf "%a" Coordinated.Audit_log.pp log;
  }

type outcome = {
  verdicts : string list;
  granted : int;
  denied : int;
  log : string;
  trace : Obs.Trace.event list;
}

let run ?mode t =
  let control = system ?mode t in
  let slice = replay ~control ~owns:(fun _ -> true) t in
  {
    verdicts = List.filter_map (fun s -> s.verdict) slice.steps;
    granted = slice.granted;
    denied = slice.denied;
    log = slice.log;
    trace = List.concat_map (fun (s : step) -> s.trace) slice.steps;
  }
