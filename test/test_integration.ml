(* Cross-library integration tests: full pipelines from policy text
   through simulation to audit, and cross-validation of independent
   implementations of the same semantics. *)

module Q = Temporal.Q

let q = Q.of_int
let prog = Sral.Parser.program

(* 1. Policy file -> world -> enforced run, end to end. *)
let test_policy_file_to_simulation () =
  let control =
    Coordinated.System.of_policy_text
      {|
user courier
role deliverer
assign courier deliverer
grant deliverer read:*@*
grant deliverer write:*@*
bind write:vault@s2 spatial "seq(read manifest @ s1, write vault @ s2)" scope performed
|}
  in
  let log = Coordinated.Audit_log.attach (Coordinated.System.bus control) in
  let world = Naplet.World.create control in
  List.iter
    (fun s -> Naplet.World.add_server world (Naplet.Server.create s))
    [ "s1"; "s2" ];
  (* compliant agent: reads the manifest first *)
  Naplet.World.spawn world ~id:"good" ~owner:"courier" ~roles:[ "deliverer" ]
    ~home:"s1" (prog "read manifest @ s1; write vault @ s2");
  (* rogue agent: goes straight for the vault *)
  Naplet.World.spawn world ~id:"rogue" ~owner:"courier" ~roles:[ "deliverer" ]
    ~home:"s1" (prog "write vault @ s2");
  let metrics = Naplet.World.run world in
  Alcotest.(check int) "grants" 2 metrics.Naplet.Metrics.granted;
  Alcotest.(check int) "denial" 1 metrics.Naplet.Metrics.denied;
  let rogue_entries = Coordinated.Audit_log.by_object log "rogue" in
  Alcotest.(check bool) "rogue denied" true
    (List.for_all
       (fun (e : Coordinated.Audit_log.entry) ->
         not (Coordinated.Decision.is_granted e.Coordinated.Audit_log.verdict))
       rogue_entries)

(* 2. The symbolic spatial checker agrees with running the program in
   the emulator: if Forall-check says every trace satisfies C, then the
   trace actually performed satisfies C. *)
let test_forall_check_sound_wrt_execution () =
  let rng = Random.State.make [| 2024 |] in
  for _ = 1 to 25 do
    let program =
      Sral.Generate.loop_free_program ~resources:[ "a"; "b" ]
        ~servers:[ "s1"; "s2" ] ~size:6 rng
    in
    let formula =
      Srac.Formula.at_most 3
        (Srac.Selector.And
           (Srac.Selector.Resource "a", Srac.Selector.Server "s1"))
    in
    let forall_holds =
      Srac.Program_sat.check_bool ~modality:Srac.Program_sat.Forall program
        formula
    in
    if forall_holds then begin
      (* run it with no constraints and check the performed trace *)
      let policy = Rbac.Policy.create () in
      Rbac.Policy.add_user policy "u";
      Rbac.Policy.add_role policy "r";
      Rbac.Policy.assign_user policy "u" "r";
      Rbac.Policy.grant policy "r"
        (Rbac.Perm.make ~operation:"*" ~target:"*@*");
      let control = Coordinated.System.create policy in
      let world = Naplet.World.create control in
      List.iter
        (fun s -> Naplet.World.add_server world (Naplet.Server.create s))
        [ "s1"; "s2" ];
      Naplet.World.spawn world ~id:"x" ~owner:"u" ~roles:[ "r" ] ~home:"s1"
        program;
      ignore (Naplet.World.run world);
      let m = Coordinated.System.monitor control ~object_id:"x" in
      let performed = Coordinated.Monitor.performed m in
      Alcotest.(check bool) "performed trace satisfies C" true
        (Srac.Trace_sat.sat ~proofs:Srac.Proof.always performed formula)
    end
  done

(* 3. The emulator's performed trace is always in the program's trace
   model (the machine implements Definition 3.2's semantics). *)
let test_execution_trace_in_trace_model () =
  let rng = Random.State.make [| 7 |] in
  for _ = 1 to 25 do
    let program =
      Sral.Generate.program ~allow_io:false ~resources:[ "a"; "b" ]
        ~servers:[ "s1"; "s2" ] ~size:8 rng
    in
    let policy = Rbac.Policy.create () in
    Rbac.Policy.add_user policy "u";
    Rbac.Policy.add_role policy "r";
    Rbac.Policy.assign_user policy "u" "r";
    Rbac.Policy.grant policy "r" (Rbac.Perm.make ~operation:"*" ~target:"*@*");
    let control = Coordinated.System.create policy in
    let world = Naplet.World.create control in
    List.iter
      (fun s -> Naplet.World.add_server world (Naplet.Server.create s))
      [ "s1"; "s2" ];
    Naplet.World.spawn world ~id:"x" ~owner:"u" ~roles:[ "r" ] ~home:"s1"
      program;
    let metrics = Naplet.World.run world in
    if metrics.Naplet.Metrics.completed_agents = 1 then begin
      let m = Coordinated.System.monitor control ~object_id:"x" in
      let performed = Coordinated.Monitor.performed m in
      let lang = Automata.Language.of_program program in
      Alcotest.(check bool)
        (Format.asprintf "trace %a in model" Sral.Trace.pp performed)
        true
        (Automata.Language.contains lang performed)
    end
  done

(* 4. Temporal budget burns with simulated time across migrations. *)
let test_budget_spans_migrations () =
  let policy = Rbac.Policy.create () in
  Rbac.Policy.add_user policy "u";
  Rbac.Policy.add_role policy "r";
  Rbac.Policy.assign_user policy "u" "r";
  Rbac.Policy.grant policy "r" (Rbac.Perm.make ~operation:"read" ~target:"*@*");
  let control = Coordinated.System.create policy in
  Coordinated.System.add_binding control
    (Coordinated.Perm_binding.make ~dur:(q 8)
       ~scheme:Temporal.Validity.Whole_journey
       (Rbac.Perm.make ~operation:"read" ~target:"*@*"));
  let world = Naplet.World.create control in
  List.iter
    (fun s -> Naplet.World.add_server world (Naplet.Server.create s))
    [ "s1"; "s2" ];
  (* access at s1 (t~0), migrate (5), access at s2 (t~5 ok, budget spent
     while migrating), then two more pushing past 8 *)
  Naplet.World.spawn world ~id:"x" ~owner:"u" ~roles:[ "r" ] ~home:"s1"
    (prog "read a @ s1; read b @ s2; read c @ s2; read d @ s2; read e @ s2");
  let metrics = Naplet.World.run world in
  Alcotest.(check bool) "some granted" true (metrics.Naplet.Metrics.granted >= 2);
  Alcotest.(check bool) "some denied" true (metrics.Naplet.Metrics.denied >= 1)

(* 5. Theorem 3.1 through the whole stack: regex -> program -> emulated
   execution -> trace matches the regex. *)
let test_thm31_through_emulation () =
  let accesses =
    [ Sral.Access.read "a" ~at:"s1"; Sral.Access.read "b" ~at:"s1" ]
  in
  let table = Automata.Symbol.of_accesses accesses in
  let rng = Random.State.make [| 99 |] in
  for _ = 1 to 15 do
    let re =
      Automata.Regex.generate ~symbols:(Automata.Symbol.alphabet table)
        ~size:6 rng
    in
    let program = Automata.To_program.program ~table re in
    (* give loop conditions a bounded valuation so the run terminates:
       replace free condition variables with false (loops exit, ifs take
       the else branch) — the resulting trace must still match the regex
       only if nonempty-trace paths chosen; instead we check membership
       in the *language* of the program, which equals that of re *)
    let env_prog =
      List.fold_left
        (fun p v -> Sral.Ast.Seq (Sral.Ast.Assign (v, Sral.Expr.Bool false), p))
        program
        (Sral.Program.free_vars program)
    in
    let policy = Rbac.Policy.create () in
    Rbac.Policy.add_user policy "u";
    Rbac.Policy.add_role policy "r";
    Rbac.Policy.assign_user policy "u" "r";
    Rbac.Policy.grant policy "r" (Rbac.Perm.make ~operation:"*" ~target:"*@*");
    let control = Coordinated.System.create policy in
    let world = Naplet.World.create control in
    Naplet.World.add_server world (Naplet.Server.create "s1");
    Naplet.World.spawn world ~id:"x" ~owner:"u" ~roles:[ "r" ] ~home:"s1"
      env_prog;
    let metrics = Naplet.World.run world in
    Alcotest.(check int) "completed" 1 metrics.Naplet.Metrics.completed_agents;
    let m = Coordinated.System.monitor control ~object_id:"x" in
    let performed = Coordinated.Monitor.performed m in
    let word =
      List.filter_map (Automata.Symbol.find table) performed
    in
    Alcotest.(check bool)
      (Format.asprintf "performed %a matches regex" Sral.Trace.pp performed)
      true
      (Automata.Regex.matches re word)
  done

(* 6. DC-based and step-function-based temporal verdicts agree across a
   whole simulated journey. *)
let test_dc_stepfn_agreement_in_sim () =
  let binding =
    Coordinated.Perm_binding.make ~dur:(q 4)
      ~scheme:Temporal.Validity.Whole_journey
      (Rbac.Perm.make ~operation:"read" ~target:"*@*")
  in
  let policy = Rbac.Policy.create () in
  Rbac.Policy.add_user policy "u";
  Rbac.Policy.add_role policy "r";
  Rbac.Policy.assign_user policy "u" "r";
  Rbac.Policy.grant policy "r" (Rbac.Perm.make ~operation:"read" ~target:"*@*");
  let control = Coordinated.System.create ~bindings:[ binding ] policy in
  let log = Coordinated.Audit_log.attach (Coordinated.System.bus control) in
  let world = Naplet.World.create control in
  Naplet.World.add_server world (Naplet.Server.create "s1");
  Naplet.World.spawn world ~id:"x" ~owner:"u" ~roles:[ "r" ] ~home:"s1"
    (prog "read a @ s1; read a @ s1; read a @ s1; read a @ s1; read a @ s1; read a @ s1");
  ignore (Naplet.World.run world);
  let m = Coordinated.System.monitor control ~object_id:"x" in
  List.iter
    (fun (e : Coordinated.Audit_log.entry) ->
      let dc =
        Coordinated.Decision.validity_dc_check ~monitor:m ~binding
          ~time:e.Coordinated.Audit_log.time
      in
      match e.Coordinated.Audit_log.verdict with
      | Coordinated.Decision.Granted ->
          Alcotest.(check bool) "granted => dc valid" true dc
      | Coordinated.Decision.Denied (Coordinated.Decision.Temporal_expired _) ->
          Alcotest.(check bool) "expired => dc invalid" false dc
      | Coordinated.Decision.Denied _ -> ())
    (Coordinated.Audit_log.entries log)

let () =
  Alcotest.run "integration"
    [
      ( "pipelines",
        [
          Alcotest.test_case "policy file to simulation" `Quick
            test_policy_file_to_simulation;
          Alcotest.test_case "forall-check sound wrt execution" `Quick
            test_forall_check_sound_wrt_execution;
          Alcotest.test_case "execution trace in trace model" `Quick
            test_execution_trace_in_trace_model;
          Alcotest.test_case "budget spans migrations" `Quick
            test_budget_spans_migrations;
          Alcotest.test_case "theorem 3.1 through emulation" `Quick
            test_thm31_through_emulation;
          Alcotest.test_case "dc/step-fn agreement in sim" `Quick
            test_dc_stepfn_agreement_in_sim;
        ] );
    ]
