module Q = Temporal.Q

let rsw_access ~at = Sral.Access.execute "rsw" ~at

type outcome = {
  attempts : int;
  granted_s1 : int;
  granted_s2 : int;
  denied : int;
  s2_locked_out : bool;
}

let repeat n access =
  Sral.Ast.seq (List.init n (fun _ -> Sral.Ast.Access access))

let run ?(s1_uses = 7) ?(s2_uses = 3) ?(limit = 5) ?global_limit ?period () =
  let policy = Rbac.Policy.create () in
  Rbac.Policy.add_user policy "guest";
  Rbac.Policy.add_role policy "trial_user";
  Rbac.Policy.assign_user policy "guest" "trial_user";
  Rbac.Policy.grant policy "trial_user"
    (Rbac.Perm.make ~operation:"execute" ~target:"rsw@*");
  let control = Coordinated.System.create policy in
  let sel_rsw = Srac.Selector.Resource "rsw" in
  let sel_rsw_s1 = Srac.Selector.And (sel_rsw, Srac.Selector.Server "s1") in
  (* the coordination rule: s2 consults the execution proofs from s1 *)
  Coordinated.System.add_binding control
    (Coordinated.Perm_binding.make
       ~spatial:(Srac.Formula.at_most limit sel_rsw_s1)
       ~spatial_scope:Coordinated.Perm_binding.Performed
       (Rbac.Perm.make ~operation:"execute" ~target:"rsw@s2"));
  (* Example 3.5's everywhere-bound, when requested *)
  (match global_limit with
  | Some n ->
      Coordinated.System.add_binding control
        (Coordinated.Perm_binding.make
           ~spatial:(Srac.Formula.at_most n sel_rsw)
           ~spatial_scope:Coordinated.Perm_binding.Performed ?dur:period
           ~scheme:Temporal.Validity.Whole_journey
           (Rbac.Perm.make ~operation:"execute" ~target:"rsw@*"))
  | None -> ());
  let log = Coordinated.Audit_log.attach (Coordinated.System.bus control) in
  let world = Naplet.World.create control in
  List.iter
    (fun s -> Naplet.World.add_server world (Naplet.Server.create s))
    [ "s1"; "s2" ];
  let program =
    Sral.Ast.Seq
      ( repeat s1_uses (rsw_access ~at:"s1"),
        repeat s2_uses (rsw_access ~at:"s2") )
  in
  Naplet.World.spawn world ~id:"trial-naplet" ~owner:"guest"
    ~roles:[ "trial_user" ] ~home:"s1" program;
  let _metrics = Naplet.World.run world in
  let granted_at s =
    List.length
      (List.filter
         (fun (e : Coordinated.Audit_log.entry) ->
           String.equal e.Coordinated.Audit_log.access.Sral.Access.server s)
         (Coordinated.Audit_log.granted log))
  in
  let s2_attempts =
    List.filter
      (fun (e : Coordinated.Audit_log.entry) ->
        String.equal e.Coordinated.Audit_log.access.Sral.Access.server "s2")
      (Coordinated.Audit_log.entries log)
  in
  {
    attempts = Coordinated.Audit_log.size log;
    granted_s1 = granted_at "s1";
    granted_s2 = granted_at "s2";
    denied = List.length (Coordinated.Audit_log.denied log);
    s2_locked_out =
      s2_attempts <> []
      && List.for_all
           (fun (e : Coordinated.Audit_log.entry) ->
             not
               (Coordinated.Decision.is_granted e.Coordinated.Audit_log.verdict))
           s2_attempts;
  }
