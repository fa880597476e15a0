module Q = Temporal.Q

type outcome = {
  edits_attempted : int;
  edits_granted : int;
  edits_denied : int;
  last_granted_at : Temporal.Q.t option;
  first_denied_at : Temporal.Q.t option;
}

let deadline_hour = Q.of_int 27 (* 3am, next day *)

let run ?(session_start = Q.of_int 22) ?(edits = 8) ?(edit_hours = Q.one)
    ?(scheme = Temporal.Validity.Whole_journey) ?(migrate_midway = true) () =
  let policy = Rbac.Policy.create () in
  Rbac.Policy.add_user policy "editor";
  Rbac.Policy.add_role policy "issue_editor";
  Rbac.Policy.assign_user policy "editor" "issue_editor";
  Rbac.Policy.grant policy "issue_editor"
    (Rbac.Perm.make ~operation:"write" ~target:"issue@*");
  let control = Coordinated.System.create policy in
  let dur = Q.sub deadline_hour session_start in
  Coordinated.System.add_binding control
    (Coordinated.Perm_binding.make ~dur ~scheme
       (Rbac.Perm.make ~operation:"write" ~target:"issue@*"));
  let config =
    {
      Naplet.World.default_config with
      Naplet.World.migration_latency = Q.make 1 4 (* 15 minutes *);
      Naplet.World.step_cost = Q.zero;
    }
  in
  let log = Coordinated.Audit_log.attach (Coordinated.System.bus control) in
  let world = Naplet.World.create ~config control in
  List.iter
    (fun s ->
      Naplet.World.add_server world
        (Naplet.Server.create ~access_duration:edit_hours s))
    [ "press1"; "press2" ];
  let edit_at s = Sral.Ast.Access (Sral.Access.write "issue" ~at:s) in
  let first_half = edits / 2 in
  let program =
    if migrate_midway then
      Sral.Ast.seq
        (List.init edits (fun i ->
             edit_at (if i < first_half then "press1" else "press2")))
    else Sral.Ast.seq (List.init edits (fun _ -> edit_at "press1"))
  in
  Naplet.World.spawn world ~id:"editor-naplet" ~owner:"editor"
    ~roles:[ "issue_editor" ] ~home:"press1" program;
  let _ = Naplet.World.run world in
  let entries = Coordinated.Audit_log.entries log in
  (* shift times: the world clock starts at 0 = session_start *)
  let hour_of (e : Coordinated.Audit_log.entry) =
    Q.add session_start e.Coordinated.Audit_log.time
  in
  let granted =
    List.filter
      (fun (e : Coordinated.Audit_log.entry) ->
        Coordinated.Decision.is_granted e.Coordinated.Audit_log.verdict)
      entries
  in
  let denied =
    List.filter
      (fun (e : Coordinated.Audit_log.entry) ->
        not (Coordinated.Decision.is_granted e.Coordinated.Audit_log.verdict))
      entries
  in
  let last l = match List.rev l with [] -> None | e :: _ -> Some (hour_of e) in
  let first l = match l with [] -> None | e :: _ -> Some (hour_of e) in
  {
    edits_attempted = List.length entries;
    edits_granted = List.length granted;
    edits_denied = List.length denied;
    last_granted_at = last granted;
    first_denied_at = first denied;
  }
