module Q = Temporal.Q

type outcome = {
  drafted : bool;
  reviewed : bool;
  published : bool;
  denied : int;
  all_completed : bool;
}

let draft = Sral.Access.write "draft" ~at:"desk"
let review = Sral.Access.custom "review" "draft" ~at:"press"
let publish = Sral.Access.custom "publish" "issue" ~at:"press"

let build_policy () =
  let policy = Rbac.Policy.create () in
  List.iter (Rbac.Policy.add_user policy) [ "writer"; "editor"; "chief" ];
  List.iter (Rbac.Policy.add_role policy) [ "author"; "reviewer"; "publisher" ];
  Rbac.Policy.grant policy "author"
    (Rbac.Perm.make ~operation:"write" ~target:"draft@desk");
  Rbac.Policy.grant policy "reviewer"
    (Rbac.Perm.make ~operation:"review" ~target:"draft@press");
  Rbac.Policy.grant policy "publisher"
    (Rbac.Perm.make ~operation:"publish" ~target:"issue@press");
  Rbac.Policy.assign_user policy "writer" "author";
  Rbac.Policy.assign_user policy "editor" "reviewer";
  (* the editor *is* assigned the publisher role; DSD stops them from
     using both in one session *)
  Rbac.Policy.assign_user policy "editor" "publisher";
  Rbac.Policy.assign_user policy "chief" "publisher";
  Rbac.Policy.add_dsd policy
    (Rbac.Sod.make ~name:"review-vs-publish"
       ~roles:[ "reviewer"; "publisher" ] ~max_roles:1);
  policy

let build_control ~deadline =
  let control = Coordinated.System.create (build_policy ()) in
  Coordinated.System.add_binding control
    (Coordinated.Perm_binding.make
       ~spatial:(Srac.Formula.Ordered (draft, review))
       ~spatial_scope:Coordinated.Perm_binding.Performed
       ~proof_scope:Coordinated.Perm_binding.Team
       (Rbac.Perm.make ~operation:"review" ~target:"draft@press"));
  Coordinated.System.add_binding control
    (Coordinated.Perm_binding.make
       ~spatial:(Srac.Formula.Ordered (review, publish))
       ~spatial_scope:Coordinated.Perm_binding.Performed
       ~proof_scope:Coordinated.Perm_binding.Team ?dur:deadline
       ~scheme:Temporal.Validity.Whole_journey
       (Rbac.Perm.make ~operation:"publish" ~target:"issue@press"));
  control

let run ?(cheat = false) ?deadline () =
  let control = build_control ~deadline in
  let log = Coordinated.Audit_log.attach (Coordinated.System.bus control) in
  let world = Naplet.World.create control in
  List.iter
    (fun s -> Naplet.World.add_server world (Naplet.Server.create s))
    [ "desk"; "press" ];
  Naplet.World.spawn world ~team:"issue42" ~id:"author-naplet" ~owner:"writer"
    ~roles:[ "author" ] ~home:"desk"
    (Sral.Parser.program "write draft @ desk; signal(drafted)");
  (* In the cheating run, one session carries both stage-2 and stage-3:
     the reviewer's roles request includes publisher, which DSD blocks,
     so the publish access lacks an active role. *)
  if cheat then
    Naplet.World.spawn world ~team:"issue42" ~id:"editor-naplet"
      ~owner:"editor"
      ~roles:[ "reviewer"; "publisher" ]
      ~home:"press"
      (Sral.Parser.program
         "wait(drafted); op(review) draft @ press; signal(reviewed); \
          op(publish) issue @ press")
  else begin
    Naplet.World.spawn world ~team:"issue42" ~id:"reviewer-naplet"
      ~owner:"editor" ~roles:[ "reviewer" ] ~home:"press"
      (Sral.Parser.program
         "wait(drafted); op(review) draft @ press; signal(reviewed)");
    Naplet.World.spawn world ~team:"issue42" ~id:"publisher-naplet"
      ~owner:"chief" ~roles:[ "publisher" ] ~home:"press"
      (Sral.Parser.program "wait(reviewed); op(publish) issue @ press")
  end;
  let metrics = Naplet.World.run world in
  let granted a =
    List.exists
      (fun (e : Coordinated.Audit_log.entry) ->
        Sral.Access.equal e.Coordinated.Audit_log.access a
        && Coordinated.Decision.is_granted e.Coordinated.Audit_log.verdict)
      (Coordinated.Audit_log.entries log)
  in
  {
    drafted = granted draft;
    reviewed = granted review;
    published = granted publish;
    denied = List.length (Coordinated.Audit_log.denied log);
    all_completed =
      metrics.Naplet.Metrics.completed_agents
      = (if cheat then 2 else 3)
      && metrics.Naplet.Metrics.deadlocked_agents = 0;
  }
