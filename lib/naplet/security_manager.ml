type t = {
  control : Coordinated.System.t;
  sessions : (string, Rbac.Session.t) Hashtbl.t;
  mutable availability : (server:string -> time:Temporal.Q.t -> bool) option;
}

type rejected_role = { role : string; reason : string }

let create control =
  { control; sessions = Hashtbl.create 8; availability = None }

let control t = t.control
let set_availability t down = t.availability <- Some down

let unavailable t ~server ~time =
  match t.availability with
  | None -> false
  | Some down -> down ~server ~time

(* Fail-closed denial: the refusal is published as a Decision event so
   it reaches the audit log, the trace and the metrics exactly like
   any other verdict — a crashed server leaves a record, never a gap. *)
let refuse t ~object_id ~time access =
  let verdict =
    Obs.Verdict.Denied
      (Obs.Verdict.Server_unavailable access.Sral.Access.server)
  in
  Obs.Bus.emit
    (Coordinated.System.bus t.control)
    (Obs.Trace.Decision { time; object_id; access; verdict });
  verdict

let on_arrival t ~object_id ~owner ~roles ~server ~time ~program =
  let session =
    match Hashtbl.find_opt t.sessions object_id with
    | Some s -> s
    | None ->
        let s = Coordinated.System.new_session t.control ~user:owner in
        Hashtbl.add t.sessions object_id s;
        s
  in
  let rejected =
    List.filter_map
      (fun role ->
        try
          Rbac.Session.activate session role;
          None
        with
        | Rbac.Session.Not_authorized (user, _) ->
            Some { role; reason = Printf.sprintf "%s is not authorized" user }
        | Rbac.Session.Dsd_violation (c, _, _) ->
            Some
              { role; reason = Format.asprintf "dynamic SoD %a" Rbac.Sod.pp c })
      roles
  in
  let bus = Coordinated.System.bus t.control in
  List.iter
    (fun { role; reason } ->
      Obs.Bus.emit bus
        (Obs.Trace.Role_rejected { time; object_id; role; reason }))
    rejected;
  Coordinated.System.arrive t.control ~object_id ~server ~time;
  Coordinated.System.refresh t.control ~session ~object_id ~program ~time;
  (session, rejected)

let check_session t ~session ~object_id ~program ~time access =
  if unavailable t ~server:access.Sral.Access.server ~time then
    refuse t ~object_id ~time access
  else
    Coordinated.System.check t.control ~session ~object_id ~program ~time access

let check t ~object_id ~program ~time access =
  match Hashtbl.find_opt t.sessions object_id with
  | None -> invalid_arg ("Security_manager.check: unknown object " ^ object_id)
  | Some session -> check_session t ~session ~object_id ~program ~time access

let session t ~object_id = Hashtbl.find_opt t.sessions object_id
