module Q = Temporal.Q

type outcome = {
  scout_reads : int;
  courier_commits : int;
  courier_denied : int;
  team_succeeded : bool;
}

let run ?(share_proofs = true) () =
  let policy = Rbac.Policy.create () in
  Rbac.Policy.add_user policy "lead";
  Rbac.Policy.add_role policy "surveyor";
  Rbac.Policy.assign_user policy "lead" "surveyor";
  Rbac.Policy.grant policy "surveyor"
    (Rbac.Perm.make ~operation:"*" ~target:"*@*");
  let control = Coordinated.System.create policy in
  let manifest = Sral.Access.read "manifest" ~at:"s1" in
  let vault = Sral.Access.write "vault" ~at:"s2" in
  Coordinated.System.add_binding control
    (Coordinated.Perm_binding.make
       ~spatial:(Srac.Formula.Ordered (manifest, vault))
       ~spatial_scope:Coordinated.Perm_binding.Performed
       ~proof_scope:
         (if share_proofs then Coordinated.Perm_binding.Team
          else Coordinated.Perm_binding.Own)
       (Rbac.Perm.make ~operation:"write" ~target:"vault@s2"));
  let log = Coordinated.Audit_log.attach (Coordinated.System.bus control) in
  let world = Naplet.World.create control in
  List.iter
    (fun s -> Naplet.World.add_server world (Naplet.Server.create s))
    [ "s1"; "s2" ];
  Naplet.World.spawn world ~team:"survey" ~id:"scout" ~owner:"lead"
    ~roles:[ "surveyor" ] ~home:"s1"
    (Sral.Parser.program "read manifest @ s1; signal(manifest_read)");
  Naplet.World.spawn world ~team:"survey" ~id:"courier" ~owner:"lead"
    ~roles:[ "surveyor" ] ~home:"s2"
    (Sral.Parser.program "wait(manifest_read); write vault @ s2");
  let _metrics = Naplet.World.run world in
  let by obj pred =
    List.length
      (List.filter
         (fun (e : Coordinated.Audit_log.entry) ->
           String.equal e.Coordinated.Audit_log.object_id obj
           && pred (Coordinated.Decision.is_granted e.Coordinated.Audit_log.verdict))
         (Coordinated.Audit_log.entries log))
  in
  {
    scout_reads = by "scout" Fun.id;
    courier_commits = by "courier" Fun.id;
    courier_denied = by "courier" not;
    team_succeeded = by "courier" Fun.id > 0;
  }
