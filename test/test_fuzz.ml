(* Randomized whole-system invariant tests ("failure injection"):
   random policies, random programs, random binding mixes — after every
   run the audit log, the proof stores and the RBAC policy must agree
   with each other.  These are the safety properties of the model
   itself, checked on inputs nobody wrote by hand. *)

module Q = Temporal.Q

let resources = [ "r1"; "r2"; "r3" ]

(* Policies and bindings come from the shared seeded generator
   ([test/gen.ml], backed by [Parallel.Workload]) — one definition of
   "a random coalition" across every randomized suite. *)
let build_world rng =
  let policy = Gen.policy rng in
  let bindings = Gen.bindings rng in
  let control = Coordinated.System.create ~bindings policy in
  let log = Coordinated.Audit_log.attach (Coordinated.System.bus control) in
  let world = Naplet.World.create control in
  let servers = [ "s1"; "s2" ] in
  List.iter
    (fun s -> Naplet.World.add_server world (Naplet.Server.create s))
    servers;
  let agents = 1 + Random.State.int rng 4 in
  for i = 1 to agents do
    let owner = if Random.State.bool rng then "u1" else "u2" in
    let program =
      Sral.Generate.program ~allow_io:false ~resources ~servers
        ~size:(4 + Random.State.int rng 8)
        rng
    in
    let team =
      if Random.State.bool rng then Some "crew"
      else if Random.State.bool rng then Some "other"
      else None
    in
    Naplet.World.spawn ?team world
      ~id:(Printf.sprintf "agent%d" i)
      ~owner
      ~roles:[ "ra"; "rb"; "rc" ]
      ~home:"s1" program
  done;
  (control, log, world)

let each_seed f = Gen.each_seed ~salt:7777 ~count:40 (fun ~seed rng -> f seed rng)

(* 1. Soundness of grants: every granted access was allowed by some
   role the owner is actually authorized for. *)
let test_grants_are_rbac_sound () =
  each_seed (fun seed rng ->
      let control, log, world = build_world rng in
      ignore (Naplet.World.run world);
      let policy = Coordinated.System.policy control in
      List.iter
        (fun (e : Coordinated.Audit_log.entry) ->
          if Coordinated.Decision.is_granted e.Coordinated.Audit_log.verdict
          then begin
            let owner =
              match
                Naplet.World.agent world e.Coordinated.Audit_log.object_id
              with
              | Some a -> a.Naplet.Agent.owner
              | None -> Alcotest.fail "granted access by unknown agent"
            in
            let a = e.Coordinated.Audit_log.access in
            let allowed =
              List.exists
                (fun perm ->
                  Rbac.Perm.matches perm
                    ~operation:(Sral.Access.operation_name a.Sral.Access.op)
                    ~target:
                      (a.Sral.Access.resource ^ "@" ^ a.Sral.Access.server))
                (Rbac.Policy.user_permissions policy owner)
            in
            Alcotest.(check bool)
              (Printf.sprintf "seed %d: grant is authorized" seed)
              true allowed
          end)
        (Coordinated.Audit_log.entries log))

(* 2. Proofs = grants: each object's performed trace is exactly its
   granted audit entries, in order. *)
let test_proofs_match_audit_log () =
  each_seed (fun seed rng ->
      let control, log, world = build_world rng in
      ignore (Naplet.World.run world);
      List.iter
        (fun (agent : Naplet.Agent.t) ->
          let id = agent.Naplet.Agent.id in
          let monitor = Coordinated.System.monitor control ~object_id:id in
          let performed = Coordinated.Monitor.performed monitor in
          let granted =
            List.filter_map
              (fun (e : Coordinated.Audit_log.entry) ->
                if
                  String.equal e.Coordinated.Audit_log.object_id id
                  && Coordinated.Decision.is_granted
                       e.Coordinated.Audit_log.verdict
                then Some e.Coordinated.Audit_log.access
                else None)
              (Coordinated.Audit_log.entries log)
          in
          Alcotest.(check bool)
            (Printf.sprintf "seed %d: %s proofs = grants" seed id)
            true
            (Sral.Trace.equal performed granted))
        (Naplet.World.agents world))

(* 3. Determinism: the same seed yields bit-identical metrics and audit
   logs. *)
let test_deterministic_replay () =
  each_seed (fun seed _ ->
      let run () =
        let rng = Random.State.make [| 7777; seed |] in
        let _, log, world = build_world rng in
        let metrics = Naplet.World.run world in
        let log_render =
          Format.asprintf "%a" Coordinated.Audit_log.pp log
        in
        ( metrics.Naplet.Metrics.granted,
          metrics.Naplet.Metrics.denied,
          Q.to_string metrics.Naplet.Metrics.end_time,
          log_render )
      in
      let r1 = run () and r2 = run () in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: replay identical" seed)
        true (r1 = r2))

(* 4. Metric consistency: granted + denied = audit entries; agent
   status counts partition the population. *)
let test_metric_consistency () =
  each_seed (fun seed rng ->
      let _, log, world = build_world rng in
      let metrics = Naplet.World.run world in
      Alcotest.(check int)
        (Printf.sprintf "seed %d: log size" seed)
        (Coordinated.Audit_log.size log)
        (metrics.Naplet.Metrics.granted + metrics.Naplet.Metrics.denied);
      let agents = Naplet.World.agents world in
      let finished =
        metrics.Naplet.Metrics.completed_agents
        + metrics.Naplet.Metrics.aborted_agents
        + metrics.Naplet.Metrics.deadlocked_agents
      in
      Alcotest.(check int)
        (Printf.sprintf "seed %d: statuses partition agents" seed)
        (List.length agents) finished)

(* 5. Budget safety: with a per-read duration binding, no object's read
   grants exceed what the budget could possibly allow. *)
let test_duration_budget_never_negative () =
  each_seed (fun seed rng ->
      let control, _, world = build_world rng in
      ignore (Naplet.World.run world);
      List.iter
        (fun (agent : Naplet.Agent.t) ->
          let monitor =
            Coordinated.System.monitor control
              ~object_id:agent.Naplet.Agent.id
          in
          List.iter
            (fun (binding : Coordinated.Perm_binding.t) ->
              match binding.Coordinated.Perm_binding.dur with
              | None -> ()
              | Some dur -> (
                  match Coordinated.Monitor.arrivals monitor with
                  | [] -> ()
                  | arrivals ->
                      let active =
                        Coordinated.Monitor.activation_fn monitor binding
                      in
                      let spent =
                        Temporal.Validity.spent
                          ~scheme:binding.Coordinated.Perm_binding.scheme
                          ~arrivals ~dur:(Some dur) active
                          ~at:(Coordinated.Monitor.now monitor)
                      in
                      Alcotest.(check bool)
                        (Printf.sprintf "seed %d: spent <= dur" seed)
                        true (Q.le spent dur)))
            (Coordinated.System.bindings control))
        (Naplet.World.agents world))

let diff_runs = 500

(* ------------------------------------------------------------------ *)
(* Differential testing: the lazy-derivative decision path vs the
   seed's linear path.  A coalition is generated once as pure data
   ([Gen.coalition], the shared [Parallel.Workload] generator) and
   interpreted twice by [Parallel.Scenario.run], once per decision
   mode.  Besides verdicts (rendered, so denial reasons are compared
   too) and audit logs, the *entire bus trace* — every
   Stage_start/Stage_end span, every Decision and Arrival event — must
   render byte-identically, because decide_lazy promises the naive
   path's exact observable behavior.  Failing coalitions are shrunk to
   a local minimum before reporting. *)

let render_trace events =
  String.concat "\n" (List.map (Format.asprintf "%a" Obs.Trace.pp) events)

(* a readable rendering of a (shrunk) coalition for failure reports *)
let pp_coalition ppf (sc : Parallel.Scenario.t) =
  let module S = Parallel.Scenario in
  Format.fprintf ppf "@[<v>%d objects, %d bindings, %d grants@,"
    (List.length sc.S.objects)
    (List.length sc.S.bindings)
    (List.length sc.S.grants);
  List.iter
    (fun (o : S.obj) ->
      Format.fprintf ppf "object %s owner=%s roles=%s program=%a@," o.S.id
        o.S.owner
        (String.concat "," o.S.roles)
        Sral.Pretty.pp o.S.program)
    sc.S.objects;
  List.iteri
    (fun i ev ->
      match ev with
      | S.Arrive (o, s) -> Format.fprintf ppf "t%d: %s arrives %s@," (i + 1) o s
      | S.Check (o, a) ->
          Format.fprintf ppf "t%d: %s checks %a@," (i + 1) o Sral.Access.pp a
      | S.Activate (o, r) ->
          Format.fprintf ppf "t%d: %s activates %s@," (i + 1) o r
      | S.Deactivate (o, r) ->
          Format.fprintf ppf "t%d: %s deactivates %s@," (i + 1) o r
      | S.Join (o, team) ->
          Format.fprintf ppf "t%d: %s joins %s@," (i + 1) o team
      | S.Refresh o -> Format.fprintf ppf "t%d: refresh %s@," (i + 1) o
      | S.Add_binding b ->
          Format.fprintf ppf "t%d: add binding %s@," (i + 1)
            (Coordinated.Perm_binding.key b))
    sc.S.events;
  Format.fprintf ppf "@]"

let test_differential_lazy_vs_naive () =
  Gen.each_seed ~salt:4243 ~count:diff_runs (fun ~seed rng ->
      let sc = Gen.coalition rng in
      let diverges sc =
        let o_lazy = Parallel.Scenario.run ~mode:Coordinated.System.Lazy sc in
        let o_naive = Parallel.Scenario.run ~mode:Coordinated.System.Naive sc in
        o_lazy.Parallel.Scenario.verdicts <> o_naive.Parallel.Scenario.verdicts
        || not (String.equal o_lazy.Parallel.Scenario.log o_naive.Parallel.Scenario.log)
        || not
             (String.equal
                (render_trace o_lazy.Parallel.Scenario.trace)
                (render_trace o_naive.Parallel.Scenario.trace))
      in
      if diverges sc then begin
        Gen.report_minimized ~seed ~what:"coalition" pp_coalition
          (Gen.shrink_coalition ~fails:diverges sc);
        Alcotest.failf "seed %d: lazy path diverges from the naive oracle" seed
      end)

(* Duplicated checks make the second decision of each pair hit the
   warm, fully-memoized lazy path — residual states, RBAC stamps,
   cursors all populated — and it must still be span-identical. *)
let test_differential_lazy_repeated_checks () =
  Gen.each_seed ~salt:31338 ~count:100 (fun ~seed rng ->
      let sc = Gen.coalition rng in
      let sc =
        {
          sc with
          Parallel.Scenario.events =
            List.concat_map
              (function
                | Parallel.Scenario.Check _ as e -> [ e; e ] | e -> [ e ])
              sc.Parallel.Scenario.events;
        }
      in
      let o_lazy = Parallel.Scenario.run ~mode:Coordinated.System.Lazy sc in
      let o_naive = Parallel.Scenario.run ~mode:Coordinated.System.Naive sc in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: warm lazy path stays faithful" seed)
        true
        (o_lazy.Parallel.Scenario.verdicts = o_naive.Parallel.Scenario.verdicts
        && String.equal o_lazy.Parallel.Scenario.log
             o_naive.Parallel.Scenario.log
        && String.equal
             (render_trace o_lazy.Parallel.Scenario.trace)
             (render_trace o_naive.Parallel.Scenario.trace)))

(* On a bus with no sink (the zero-allocation path) there are no
   events to compare, so drive Decision.decide_lazy and
   Decision.decide_naive directly against side-by-side monitors fed
   identical histories: verdicts, clock, arrivals, proof count and every
   binding's activation function must stay in lockstep through
   arrivals, refreshes, role flips and grants. *)
let test_differential_lazy_direct () =
  let module D = Coordinated.Decision in
  let module M = Coordinated.Monitor in
  Gen.each_seed ~salt:4244 ~count:300 (fun ~seed rng ->
      let policy = Gen.policy rng in
      let bindings = Gen.bindings rng in
      let index = Coordinated.Binding_index.of_list bindings in
      let servers = [ "s1"; "s2" ] in
      let user = if Random.State.bool rng then "u1" else "u2" in
      let session = Rbac.Session.create policy ~user in
      let toggle_role () =
        let r = Gen.pick rng [ "ra"; "rb"; "rc" ] in
        if List.mem r (Rbac.Session.active_roles session) then
          Rbac.Session.deactivate session r
        else try Rbac.Session.activate session r with _ -> ()
      in
      toggle_role ();
      toggle_role ();
      let program =
        Sral.Generate.program ~allow_io:false ~resources ~servers
          ~size:(4 + Random.State.int rng 8)
          rng
      in
      let m_lazy = M.create ~object_id:"obj" in
      let m_naive = M.create ~object_id:"obj" in
      let bus = Obs.Bus.create () in
      let outcomes = Coordinated.Residual.Program_outcomes.create () in
      let random_access () =
        let r = Gen.pick rng resources and s = Gen.pick rng servers in
        if Random.State.bool rng then Sral.Access.read r ~at:s
        else Sral.Access.write r ~at:s
      in
      let time = ref Q.zero in
      for step = 1 to 25 do
        time := Q.add !time Q.one;
        match Random.State.int rng 6 with
        | 0 ->
            let server = Gen.pick rng servers in
            M.record_arrival m_lazy ~server ~time:!time;
            M.record_arrival m_naive ~server ~time:!time
        | 1 ->
            D.refresh_activation ~session ~monitor:m_naive ~bindings
              ~outcomes ~program ~time:!time ();
            D.refresh_activation_lazy ~session ~monitor:m_lazy ~bindings
              ~team_version:0 ~outcomes ~program ~time:!time ()
        | 2 -> toggle_role ()
        | _ -> (
            let access = random_access () in
            let v_naive =
              D.decide_naive ~bus ~session ~monitor:m_naive ~bindings
                ~outcomes ~program ~time:!time access
            in
            let v_lazy =
              D.decide_lazy ~bus ~session ~monitor:m_lazy
                ~applicable:(Coordinated.Binding_index.applicable index access)
                ~team_version:0 ~outcomes ~program ~time:!time access
            in
            if v_naive <> v_lazy then
              Alcotest.failf
                "seed %d step %d: %a (lazy) vs %a (naive) on %a" seed step
                D.pp_verdict v_lazy D.pp_verdict v_naive Sral.Access.pp access;
            match v_naive with
            | D.Granted ->
                M.record_access m_lazy access ~time:!time;
                M.record_access m_naive access ~time:!time
            | D.Denied _ -> ())
      done;
      let same_activation (b : Coordinated.Perm_binding.t) =
        List.equal
          (fun (t1, v1) (t2, v2) -> Q.equal t1 t2 && Bool.equal v1 v2)
          (Temporal.Step_fn.changes (M.activation_fn m_lazy b))
          (Temporal.Step_fn.changes (M.activation_fn m_naive b))
      in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: monitors moved in lockstep" seed)
        true
        (Q.equal (M.now m_lazy) (M.now m_naive)
        && List.equal Q.equal (M.arrivals m_lazy) (M.arrivals m_naive)
        && List.for_all same_activation bindings
        && M.history_epoch m_lazy = M.history_epoch m_naive))

(* 8. The temporal-workflow family as a fuzz workload: the model-level
   safety properties must hold on workflow-shaped runs too.  (a) The
   satisfiable family's planted witness really completes and the
   checker's own witness replays; (b) the unsatisfiable family never
   completes under *any* assignment the checker or brute force can
   find; (c) the checker's verdict is decision-mode independent —
   Lazy vs Naive is an evaluation strategy, not a semantics. *)
let test_workflow_family_invariants () =
  let module W = Scenarios.Workflow_family in
  let module Sat = Scenarios.Workflow_sat in
  Gen.each_seed ~salt:7778 ~count:30 (fun ~seed rng ->
      let wf, planted = W.satisfiable rng in
      let fail_shrunk fails msg =
        Gen.report_minimized ~seed ~what:"workflow" W.pp
          (Gen.shrink_workflow ~fails wf);
        Alcotest.failf "seed %d: %s" seed msg
      in
      if not (W.run wf planted).W.completed then
        fail_shrunk
          (fun wf' ->
            List.length wf'.W.tasks = List.length wf.W.tasks
            && not (W.run wf' planted).W.completed)
          "planted witness does not complete";
      (match Sat.check wf with
      | Sat.Complete w ->
          if not (W.run wf w).W.completed then
            fail_shrunk
              (fun wf' ->
                match Sat.check wf' with
                | Sat.Complete w' -> not (W.run wf' w').W.completed
                | Sat.Impossible _ -> false)
              "checker witness does not replay"
      | Sat.Impossible imp ->
          Alcotest.failf "seed %d: satisfiable family unsat: %s" seed
            (Sat.explain imp));
      let adv = W.generate W.Adversarial rng in
      let verdict mode = Format.asprintf "%a" Sat.pp_verdict (Sat.check ~mode adv) in
      Alcotest.(check string)
        (Printf.sprintf "seed %d: lazy = naive on workflows" seed)
        (verdict Coordinated.System.Lazy)
        (verdict Coordinated.System.Naive))

let test_workflow_unsat_never_completes () =
  let module W = Scenarios.Workflow_family in
  let module Sat = Scenarios.Workflow_sat in
  Gen.each_seed ~salt:7779 ~count:30 (fun ~seed rng ->
      let wf = W.unsatisfiable rng in
      (match Sat.check wf with
      | Sat.Impossible _ -> ()
      | Sat.Complete w ->
          Gen.report_minimized ~seed ~what:"workflow" W.pp
            (Gen.shrink_workflow
               ~fails:(fun wf' ->
                 match Sat.check wf' with
                 | Sat.Complete _ -> true
                 | Sat.Impossible _ -> false)
               wf);
          Alcotest.failf "seed %d: unsatisfiable family completed by %s" seed
            (String.concat "," (List.map (fun (t, p) -> t ^ "=" ^ p) w)));
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: brute force agrees" seed)
        true
        (Sat.brute_force wf = None))

(* 9. The admin-safety adversarial family as a fuzz workload: random
   instances over the full administrative op surface, decided twice —
   symbolically (with pruning) and by explicit sequence enumeration.
   Constructors must agree on every instance, determinism must hold
   (same instance, same outcome rendering), and every symbolic Leak
   must replay through the real system to a grant. *)
let test_admin_adversarial_differential () =
  let module Ad = Analysis.Admin in
  let module AF = Scenarios.Admin_family in
  let tag = function
    | Ad.Leak _ -> "leak"
    | Ad.Safe _ -> "safe"
    | Ad.Undetermined _ -> "undetermined"
  in
  Gen.each_seed ~salt:7780 ~count:60 (fun ~seed rng ->
      let inst = AF.adversarial rng in
      let sym = Ad.check inst in
      let brute = Ad.brute_force inst in
      if not (String.equal (tag sym.Ad.verdict) (tag brute.Ad.verdict)) then
        Alcotest.failf "seed %d: symbolic %a but brute force %a" seed
          Ad.pp_verdict sym.Ad.verdict Ad.pp_verdict brute.Ad.verdict;
      let again = Ad.check inst in
      Alcotest.(check string)
        (Printf.sprintf "seed %d: deterministic outcome" seed)
        (Format.asprintf "%a" Ad.pp_outcome sym)
        (Format.asprintf "%a" Ad.pp_outcome again);
      match sym.Ad.verdict with
      | Ad.Leak { ops; witness } ->
          let trace = List.map fst witness.Analysis.Safety.steps in
          Alcotest.(check bool)
            (Printf.sprintf "seed %d: leak replays to a grant" seed)
            true
            (Coordinated.Decision.is_granted
               (Ad.replay_witness inst ops ~trace))
      | Ad.Safe _ | Ad.Undetermined _ -> ())

(* 10. Team proof scope, lazy = naive through [System.check].  The
   coalition differential above runs event i at global time i + 1, so a
   member's new proof never sorts before one its teammates already
   hold.  Here every member keeps its own clock, and member i's clock
   steps by up to 2i + 1, so a slow member's proof often lands in the
   middle of the team's merged history.  Members also switch teams
   mid-run, and a [T_swap] trades two members of different teams that
   hold equally many proofs: the teams' proof totals stay the same
   while their histories change, which only the membership stamp
   shows.  A switch can also drop the only accesses that kept a
   constraint feasible from a member's team history; a machine kept
   across the switch still has them in its alphabet, and about one
   schedule in 650 catches that.  The lazy run must match the naive
   oracle's verdicts and every activation function. *)

type team_event =
  | T_check of int * int * Sral.Access.t  (* member, clock step, access *)
  | T_refresh of int * int  (* member, clock step *)
  | T_join of int * string
  | T_swap

type team_schedule = {
  members : (Sral.Ast.t * string) list;  (* program, first team *)
  team_bindings : Coordinated.Perm_binding.t list;
  team_events : team_event list;
}

let team_pool =
  List.concat_map
    (fun r ->
      List.concat_map
        (fun s -> [ Sral.Access.read r ~at:s; Sral.Access.write r ~at:s ])
        [ "s1"; "s2" ])
    [ "r1"; "r2" ]

let team_binding rng ~proof_scope =
  Coordinated.Perm_binding.make
    ~spatial:(Gen.srac_formula ~accesses:team_pool rng)
    ~spatial_modality:
      (if Random.State.bool rng then Srac.Program_sat.Exists
       else Srac.Program_sat.Forall)
    ~spatial_scope:
      (if Random.State.int rng 4 = 0 then Coordinated.Perm_binding.Both
       else Coordinated.Perm_binding.Performed)
    ~proof_scope
    (Rbac.Perm.make
       ~operation:(Gen.pick rng [ "read"; "write"; "*" ])
       ~target:"*@*")

let team_schedule rng =
  let n = 2 + Random.State.int rng 3 in
  let members =
    List.init n (fun _ ->
        let program =
          Sral.Generate.program ~allow_io:false ~resources:[ "r1"; "r2" ]
            ~servers:[ "s1"; "s2" ]
            ~size:(4 + Random.State.int rng 6)
            rng
        in
        (program, Gen.pick rng [ "t1"; "t2" ]))
  in
  let team_bindings =
    team_binding rng ~proof_scope:Coordinated.Perm_binding.Team
    ::
    (if Random.State.bool rng then
       [
         team_binding rng
           ~proof_scope:
             Coordinated.Perm_binding.(Gen.pick rng [ Own; Team ]);
       ]
     else [])
  in
  let event _ =
    let who = Random.State.int rng n in
    let step = Random.State.int rng ((2 * who) + 2) in
    match Random.State.int rng 20 with
    | 0 | 1 -> T_join (who, Gen.pick rng [ "t1"; "t2" ])
    | 2 | 3 -> T_swap
    | 4 | 5 -> T_refresh (who, step)
    | _ -> T_check (who, step, Gen.pick rng team_pool)
  in
  {
    members;
    team_bindings;
    team_events = List.init (20 + Random.State.int rng 30) event;
  }

type team_run = {
  trace : string list;  (* verdicts, then activation functions *)
  lagging : int;  (* grants that sort before a teammate's latest proof *)
  swaps : int;  (* equal-total swaps with a third member in either team *)
}

(* One user "u" whose role "r" may do anything: every verdict below
   comes from the bindings. *)
let team_policy () =
  let policy = Rbac.Policy.create () in
  Rbac.Policy.add_user policy "u";
  Rbac.Policy.add_role policy "r";
  Rbac.Policy.assign_user policy "u" "r";
  Rbac.Policy.grant policy "r" (Rbac.Perm.make ~operation:"*" ~target:"*@*");
  policy

(* Every member's activation function for every binding, as text. *)
let activation_lines sys ~members bindings =
  List.concat_map
    (fun i ->
      let m = Coordinated.System.monitor sys ~object_id:(Printf.sprintf "m%d" i) in
      List.map
        (fun b ->
          Format.asprintf "m%d %s: %a" i
            (Coordinated.Perm_binding.key b)
            Temporal.Step_fn.pp
            (Coordinated.Monitor.activation_fn m b))
        bindings)
    (List.init members Fun.id)

let run_team_schedule ~mode sc =
  let module S = Coordinated.System in
  let sys = S.create ~mode ~bindings:sc.team_bindings (team_policy ()) in
  let programs = Array.of_list (List.map fst sc.members) in
  let all = List.init (Array.length programs) Fun.id in
  let id i = Printf.sprintf "m%d" i in
  let sessions =
    Array.map
      (fun _ ->
        let s = S.new_session sys ~user:"u" in
        Rbac.Session.activate s "r";
        s)
      programs
  in
  List.iteri
    (fun i (_, team) ->
      S.arrive sys ~object_id:(id i) ~server:"s1" ~time:Q.zero;
      S.join_team sys ~object_id:(id i) ~team)
    sc.members;
  let clocks = Array.make (Array.length programs) 0 in
  let last_proof = Array.make (Array.length programs) (-1) in
  let team i = S.team_of sys ~object_id:(id i) in
  let proofs i =
    Coordinated.Monitor.history_epoch (S.monitor sys ~object_id:(id i))
  in
  let lagging = ref 0 and swaps = ref 0 in
  let tick i dt =
    clocks.(i) <- clocks.(i) + dt;
    clocks.(i)
  in
  let verdicts =
    List.filter_map
      (function
        | T_check (i, dt, access) ->
            let t = tick i dt in
            let v =
              S.check sys ~session:sessions.(i) ~object_id:(id i)
                ~program:programs.(i) ~time:(Q.of_int t) access
            in
            if Coordinated.Decision.is_granted v then begin
              if
                List.exists
                  (fun j -> j <> i && team j = team i && last_proof.(j) > t)
                  all
              then incr lagging;
              last_proof.(i) <- t
            end;
            Some
              (Format.asprintf "%s@%d %a: %a" (id i) t Sral.Access.pp access
                 Coordinated.Decision.pp_verdict v)
        | T_refresh (i, dt) ->
            let t = tick i dt in
            S.refresh sys ~session:sessions.(i) ~object_id:(id i)
              ~program:programs.(i) ~time:(Q.of_int t);
            None
        | T_join (i, team) ->
            S.join_team sys ~object_id:(id i) ~team;
            None
        | T_swap ->
            let equal_pairs =
              List.concat_map
                (fun a ->
                  List.filter_map
                    (fun b ->
                      if a < b && team a <> team b && proofs a = proofs b
                         && proofs a > 0
                      then Some (a, b)
                      else None)
                    all)
                all
            in
            (match equal_pairs with
            | [] -> ()
            | (a, b) :: _ ->
                let ta = team a and tb = team b in
                S.join_team sys ~object_id:(id a) ~team:(Option.get tb);
                S.join_team sys ~object_id:(id b) ~team:(Option.get ta);
                if
                  List.exists
                    (fun c -> c <> a && c <> b && (team c = ta || team c = tb))
                    all
                then incr swaps);
            None)
      sc.team_events
  in
  let activations =
    activation_lines sys ~members:(Array.length programs) sc.team_bindings
  in
  { trace = verdicts @ activations; lagging = !lagging; swaps = !swaps }

let pp_team_schedule ppf sc =
  Format.fprintf ppf "@[<v>";
  List.iteri
    (fun i (program, team) ->
      Format.fprintf ppf "m%d in %s, program %a@," i team Sral.Pretty.pp
        program)
    sc.members;
  List.iter
    (fun b -> Format.fprintf ppf "%a@," Coordinated.Perm_binding.pp b)
    sc.team_bindings;
  List.iter
    (function
      | T_check (i, dt, a) ->
          Format.fprintf ppf "m%d +%d checks %a@," i dt Sral.Access.pp a
      | T_refresh (i, dt) -> Format.fprintf ppf "m%d +%d refreshes@," i dt
      | T_join (i, team) -> Format.fprintf ppf "m%d joins %s@," i team
      | T_swap -> Format.fprintf ppf "swap@,")
    sc.team_events;
  Format.fprintf ppf "@]"

let team_runs = 1000

let test_team_scope_lazy_vs_naive () =
  let lagging = ref 0 and swaps = ref 0 in
  Gen.each_seed ~salt:4245 ~count:team_runs (fun ~seed rng ->
      let sc = team_schedule rng in
      let trace mode sc = (run_team_schedule ~mode sc).trace in
      let diverges sc =
        trace Coordinated.System.Lazy sc <> trace Coordinated.System.Naive sc
      in
      let r = run_team_schedule ~mode:Coordinated.System.Lazy sc in
      lagging := !lagging + r.lagging;
      swaps := !swaps + r.swaps;
      if r.trace <> trace Coordinated.System.Naive sc then begin
        let candidates sc =
          List.map
            (fun evs -> { sc with team_events = evs })
            (Gen.drop_one sc.team_events)
          @ List.map
              (fun bs -> { sc with team_bindings = bs })
              (Gen.drop_one sc.team_bindings)
        in
        let small = Gen.shrink ~fails:diverges ~candidates sc in
        Gen.report_minimized ~seed ~what:"team schedule" pp_team_schedule small;
        Alcotest.(check (list string))
          (Printf.sprintf "seed %d: lazy Team scope = naive oracle" seed)
          (trace Coordinated.System.Naive small)
          (trace Coordinated.System.Lazy small)
      end);
  Printf.printf "%d lagging grants, %d equal-total swaps over %d schedules\n"
    !lagging !swaps team_runs;
  Alcotest.(check bool) "schedules produce lagging grants" true
    (!lagging >= team_runs);
  Alcotest.(check bool) "schedules produce equal-total swaps" true
    (!swaps >= team_runs / 10)

(* --- companion lists stamped on the monitor ---
   A [Lazy] check reads the object's companions from a list cached on
   the object's own monitor and stamped with the system's membership
   version.  Here some members start outside every team, so a member
   is checked (and stamped with no companions) before it joins; joins
   land after a teammate's list was stamped; and [S_clone] moves the
   run onto a clone of a system whose version is past zero, where the
   clone's fresh monitors must compute their own lists.  Every check
   and refresh goes through the by-id [System] entry points, and the
   lazy run must match the naive oracle's verdicts and activation
   functions. *)

type stamp_event =
  | S_check of int * int * Sral.Access.t  (* member, clock step, access *)
  | S_refresh of int * int
  | S_join of int * string
  | S_clone

type stamp_schedule = {
  s_members : (Sral.Ast.t * string option) list;  (* program, first team *)
  s_bindings : Coordinated.Perm_binding.t list;
  s_events : stamp_event list;
}

let stamp_schedule rng =
  let n = 2 + Random.State.int rng 3 in
  let s_members =
    List.init n (fun _ ->
        let program =
          Sral.Generate.program ~allow_io:false ~resources:[ "r1"; "r2" ]
            ~servers:[ "s1"; "s2" ]
            ~size:(4 + Random.State.int rng 6)
            rng
        in
        let team =
          if Random.State.bool rng then Some (Gen.pick rng [ "t1"; "t2" ])
          else None
        in
        (program, team))
  in
  let event _ =
    let who = Random.State.int rng n in
    let step = Random.State.int rng ((2 * who) + 2) in
    match Random.State.int rng 16 with
    | 0 | 1 | 2 -> S_join (who, Gen.pick rng [ "t1"; "t2" ])
    | 3 -> S_clone
    | 4 -> S_refresh (who, step)
    | _ -> S_check (who, step, Gen.pick rng team_pool)
  in
  {
    s_members;
    s_bindings =
      [ team_binding rng ~proof_scope:Coordinated.Perm_binding.Team ];
    s_events = List.init (20 + Random.State.int rng 30) event;
  }

type stamp_run = {
  s_trace : string list;  (* verdicts, then activation functions *)
  teamless_then_joined : int;  (* joins by a member checked while team-less *)
  joined_after_stamp : int;  (* joins into a team with a checked member *)
  versioned_clones : int;  (* clones of a system that saw a join *)
}

let run_stamp_schedule ~mode sc =
  let module S = Coordinated.System in
  let members = Array.of_list sc.s_members in
  let n = Array.length members in
  let id i = Printf.sprintf "m%d" i in
  let sys = ref (S.create ~mode ~bindings:sc.s_bindings (team_policy ())) in
  let sessions =
    Array.map
      (fun _ ->
        let s = S.new_session !sys ~user:"u" in
        Rbac.Session.activate s "r";
        s)
      members
  in
  let clocks = Array.make n 0 in
  (* per member, on the current system: checked at all / while team-less *)
  let checked = Array.make n false and teamless = Array.make n false in
  let joins = ref 0 in
  let join i team =
    S.join_team !sys ~object_id:(id i) ~team;
    teamless.(i) <- false;
    incr joins
  in
  let enter () =
    Array.iteri
      (fun i _ ->
        S.arrive !sys ~object_id:(id i) ~server:"s1"
          ~time:(Q.of_int clocks.(i));
        checked.(i) <- false;
        teamless.(i) <- false)
      members;
    joins := 0
  in
  enter ();
  Array.iteri (fun i (_, team) -> Option.iter (join i) team) members;
  let teamless_then_joined = ref 0
  and joined_after_stamp = ref 0
  and versioned_clones = ref 0 in
  let tick i dt =
    clocks.(i) <- clocks.(i) + dt;
    Q.of_int clocks.(i)
  in
  let verdicts =
    List.filter_map
      (function
        | S_check (i, dt, access) ->
            let time = tick i dt in
            if S.team_of !sys ~object_id:(id i) = None then
              teamless.(i) <- true;
            checked.(i) <- true;
            let v =
              S.check !sys ~session:sessions.(i) ~object_id:(id i)
                ~program:(fst members.(i)) ~time access
            in
            Some
              (Format.asprintf "%s@%a %a: %a" (id i) Q.pp time Sral.Access.pp
                 access Coordinated.Decision.pp_verdict v)
        | S_refresh (i, dt) ->
            S.refresh !sys ~session:sessions.(i) ~object_id:(id i)
              ~program:(fst members.(i)) ~time:(tick i dt);
            None
        | S_join (i, team) ->
            if teamless.(i) then incr teamless_then_joined;
            if
              List.exists
                (fun j ->
                  j <> i && checked.(j)
                  && S.team_of !sys ~object_id:(id j) = Some team)
                (List.init n Fun.id)
            then incr joined_after_stamp;
            join i team;
            None
        | S_clone ->
            if !joins > 0 then incr versioned_clones;
            sys := S.clone !sys;
            enter ();
            Some "clone")
      sc.s_events
  in
  {
    s_trace = verdicts @ activation_lines !sys ~members:n sc.s_bindings;
    teamless_then_joined = !teamless_then_joined;
    joined_after_stamp = !joined_after_stamp;
    versioned_clones = !versioned_clones;
  }

let pp_stamp_schedule ppf sc =
  Format.fprintf ppf "@[<v>";
  List.iteri
    (fun i (program, team) ->
      Format.fprintf ppf "m%d in %s, program %a@," i
        (Option.value team ~default:"no team")
        Sral.Pretty.pp program)
    sc.s_members;
  List.iter
    (fun b -> Format.fprintf ppf "%a@," Coordinated.Perm_binding.pp b)
    sc.s_bindings;
  List.iter
    (function
      | S_check (i, dt, a) ->
          Format.fprintf ppf "m%d +%d checks %a@," i dt Sral.Access.pp a
      | S_refresh (i, dt) -> Format.fprintf ppf "m%d +%d refreshes@," i dt
      | S_join (i, team) -> Format.fprintf ppf "m%d joins %s@," i team
      | S_clone -> Format.fprintf ppf "clone@,")
    sc.s_events;
  Format.fprintf ppf "@]"

let stamp_runs = 400

let test_companion_stamp_lazy_vs_naive () =
  let teamless = ref 0 and after_stamp = ref 0 and clones = ref 0 in
  Gen.each_seed ~salt:4246 ~count:stamp_runs (fun ~seed rng ->
      let sc = stamp_schedule rng in
      let trace mode sc = (run_stamp_schedule ~mode sc).s_trace in
      let diverges sc =
        trace Coordinated.System.Lazy sc <> trace Coordinated.System.Naive sc
      in
      let r = run_stamp_schedule ~mode:Coordinated.System.Lazy sc in
      teamless := !teamless + r.teamless_then_joined;
      after_stamp := !after_stamp + r.joined_after_stamp;
      clones := !clones + r.versioned_clones;
      if r.s_trace <> trace Coordinated.System.Naive sc then begin
        let candidates sc =
          List.map
            (fun evs -> { sc with s_events = evs })
            (Gen.drop_one sc.s_events)
        in
        let small = Gen.shrink ~fails:diverges ~candidates sc in
        Gen.report_minimized ~seed ~what:"stamp schedule" pp_stamp_schedule
          small;
        Alcotest.(check (list string))
          (Printf.sprintf "seed %d: lazy companions = naive oracle" seed)
          (trace Coordinated.System.Naive small)
          (trace Coordinated.System.Lazy small)
      end);
  Printf.printf
    "%d joins after a team-less check, %d joins after a teammate's stamp, %d \
     clones of a versioned system over %d schedules\n"
    !teamless !after_stamp !clones stamp_runs;
  Alcotest.(check bool) "schedules join after team-less checks" true
    (!teamless >= stamp_runs);
  Alcotest.(check bool) "schedules join after a teammate's stamp" true
    (!after_stamp >= stamp_runs);
  Alcotest.(check bool) "schedules clone versioned systems" true
    (!clones >= stamp_runs)

(* --- the compiled RBAC table = Engine.decide_access ---
   [Rbac.Engine.decide_compiled] (the production RBAC stage) must give
   the oracle's verdict and denial bytes on every access, while admin
   ops move the policy version between probes.  Role hierarchies
   exercise the closure the table is built from; the target pool holds
   every pattern shape, and resource and server names holding '@'
   exercise the first-'@' split.  Names longer than [Sral.Clip.limit]
   (a user, an operation, a resource), and short names whose joined
   target is longer, exercise the clipped denial text.

   The same table holds each user's authorized roles and each role's
   closure, so every activation's outcome and [Engine.may_compiled]
   (the lazy path's role bit) are compared too, against an oracle the
   test derives from [Hierarchy.juniors], the assigned roles and the
   direct permissions.

   [decide_compiled] reads an array each session keeps with its
   [Session.version], so sessions also deactivate and drop roles, and
   the property counts the probes whose session changed its active
   roles or saw a policy version bump since its previous probe: an
   array read once, or refreshed on the policy version alone, gives a
   stale verdict at some of them. *)

type rbac_event =
  | R_probe of int * Sral.Access.t  (* session index, access *)
  | R_activate of int * string
  | R_deactivate of int * string
  | R_drop of int
  | R_grant of string * Rbac.Perm.t
  | R_revoke of string * int  (* the role's nth direct permission *)
  | R_inherit of string * string  (* senior, junior *)
  | R_assign of string * string
  | R_deassign of string * string
  | R_add_role of string

let long = String.make 70 'l'  (* past the clip limit alone *)
let half = String.make 40 'h'  (* past it only when joined *)
let long_user = "u" ^ long
let rbac_users = [| "u0"; "u0"; "u1"; long_user |]  (* per session *)
let rbac_roles = [ "ra"; "rb"; "rc"; "rd" ]

let rbac_targets =
  [ "*"; "db"; "db@*"; "*@s1"; "db@s1"; "*@*"; "a@b@s1"; "*@b@s1"; "a@*";
    "a@b@*"; "cfg@s2"; long ^ "@*"; half ^ "@" ^ half ]

let rbac_probe rng i =
  let op =
    Gen.pick rng
      Sral.Access.[ Read; Write; Custom "hash"; Custom "*"; Custom long ]
  in
  R_probe
    ( i,
      Sral.Access.make ~op
        ~resource:
          (Gen.pick rng [ "db"; "a"; "a@b"; "cfg"; "*"; long; half; long ^ "@b" ])
        ~server:(Gen.pick rng [ "s1"; "s2"; "b@s1"; half ]) )

let rbac_event rng =
  let role () = Gen.pick rng rbac_roles in
  let user () = Gen.pick rng [ "u0"; "u1"; long_user ] in
  let session () = Random.State.int rng (Array.length rbac_users) in
  match Random.State.int rng 18 with
  | 0 | 1 | 2 | 3 | 4 | 5 -> rbac_probe rng (session ())
  | 6 | 7 -> R_activate (session (), role ())
  | 8 | 9 ->
      R_grant
        ( role (),
          Rbac.Perm.make
            ~operation:(Gen.pick rng [ "read"; "write"; "hash"; "*"; long ])
            ~target:(Gen.pick rng rbac_targets) )
  | 10 -> R_revoke (role (), Random.State.int rng 4)
  | 11 | 12 -> R_inherit (role (), role ())
  | 13 -> R_assign (user (), role ())
  | 14 -> R_deassign (user (), role ())
  | 15 -> R_add_role (role ())
  | 16 -> R_deactivate (session (), role ())
  | _ -> R_drop (session ())

(* with the policy left alone, so that a session's stamp moves by its
   roles only *)
let rbac_session_event rng =
  let session = Random.State.int rng (Array.length rbac_users) in
  match Random.State.int rng 10 with
  | 0 | 1 | 2 | 3 | 4 -> rbac_probe rng session
  | 5 | 6 -> R_activate (session, Gen.pick rng rbac_roles)
  | 7 | 8 -> R_deactivate (session, Gen.pick rng rbac_roles)
  | _ -> R_drop session

let rbac_schedule rng =
  (* every session starts with an active role, so probes see grants
     early *)
  [ R_add_role "ra"; R_assign ("u0", "ra"); R_assign ("u1", "ra");
    R_assign (long_user, "ra") ]
  @ List.init (Array.length rbac_users) (fun i -> R_activate (i, "ra"))
  @ List.init (30 + Random.State.int rng 40) (fun _ -> rbac_event rng)
  @ List.init (10 + Random.State.int rng 20) (fun _ -> rbac_session_event rng)

let pp_rbac_event ppf = function
  | R_probe (i, a) ->
      Format.fprintf ppf "session %d probes %a" i Sral.Access.pp a
  | R_activate (i, r) -> Format.fprintf ppf "session %d activates %s" i r
  | R_deactivate (i, r) -> Format.fprintf ppf "session %d deactivates %s" i r
  | R_drop i -> Format.fprintf ppf "session %d drops its roles" i
  | R_grant (r, p) -> Format.fprintf ppf "grant %s %a" r Rbac.Perm.pp p
  | R_revoke (r, n) -> Format.fprintf ppf "revoke %s's permission %d" r n
  | R_inherit (s, j) -> Format.fprintf ppf "%s inherits %s" s j
  | R_assign (u, r) -> Format.fprintf ppf "assign %s %s" u r
  | R_deassign (u, r) -> Format.fprintf ppf "deassign %s %s" u r
  | R_add_role r -> Format.fprintf ppf "add role %s" r

let pp_rbac_schedule ppf events =
  Format.fprintf ppf "@[<v>%a@]"
    (Format.pp_print_list pp_rbac_event)
    events

type rbac_probe = {
  expected : Rbac.Engine.verdict;
  actual : Rbac.Engine.verdict;
  inherited : bool;  (* granted through a junior role only *)
  bumped : bool;  (* the policy version moved since the session's last probe *)
  restamped : bool;  (* its active roles or the policy changed since then *)
  roles_moved : bool;  (* its active roles changed, the policy did not *)
}

let oracle_closure policy r =
  let juniors =
    match Rbac.Hierarchy.juniors (Rbac.Policy.hierarchy policy) r with
    | [] -> [ r ]
    | juniors -> juniors
  in
  List.concat_map (Rbac.Policy.direct_permissions policy) juniors

let oracle_may policy session ~operation ~target =
  List.exists
    (fun r ->
      List.exists
        (fun perm -> Rbac.Perm.matches perm ~operation ~target)
        (oracle_closure policy r))
    (Rbac.Session.active_roles session)

let oracle_may_activate policy session r =
  List.mem r (Rbac.Session.active_roles session)
  || List.exists
       (fun a ->
         List.mem r (Rbac.Hierarchy.juniors (Rbac.Policy.hierarchy policy) a))
       (Rbac.Policy.assigned_roles policy (Rbac.Session.user session))

let refused_activations = ref 0

(* Probes in order, and each disagreement of an activation or a
   compiled [may] with the oracle. *)
let run_rbac_schedule events =
  let module P = Rbac.Policy in
  let policy = P.create () in
  P.add_user policy "u0";
  P.add_user policy "u1";
  P.add_user policy long_user;
  let sessions =
    Array.map (fun user -> Rbac.Session.create policy ~user) rbac_users
  in
  let last_seen = Array.make (Array.length sessions) (-1) in
  let last_roles = Array.make (Array.length sessions) None in
  let admin f = try f () with P.Unknown _ | Rbac.Hierarchy.Cycle _ -> () in
  let mismatches = ref [] in
  let mismatch fmt =
    Format.kasprintf (fun m -> mismatches := m :: !mismatches) fmt
  in
  let probes =
    List.filter_map
      (function
        | R_probe (i, a) ->
            let s = sessions.(i) in
            let operation = Sral.Access.operation_name a.op in
            List.iter
              (fun target ->
                let expected = oracle_may policy s ~operation ~target in
                if Rbac.Engine.may_compiled s ~operation ~target <> expected then
                  mismatch "session %d: compiled may %s:%s is %b" i operation
                    target (not expected))
              ((a.resource ^ "@" ^ a.server) :: rbac_targets);
            let expected = Rbac.Engine.decide_access s a in
            let actual = Rbac.Engine.decide_compiled s a in
            let direct =
              List.exists
                (fun r ->
                  List.exists
                    (fun perm ->
                      Rbac.Perm.matches perm ~operation
                        ~target:(a.resource ^ "@" ^ a.server))
                    (P.direct_permissions policy r))
                (Rbac.Session.active_roles s)
            in
            let version = P.version policy in
            let bumped = last_seen.(i) >= 0 && last_seen.(i) <> version in
            let roles = Rbac.Session.active_roles s in
            let roles_moved =
              match last_roles.(i) with
              | Some before -> before <> roles && not bumped
              | None -> false
            in
            last_seen.(i) <- version;
            last_roles.(i) <- Some roles;
            Some
              {
                expected;
                actual;
                inherited = Rbac.Engine.is_granted expected && not direct;
                bumped;
                restamped = bumped || roles_moved;
                roles_moved;
              }
        | R_activate (i, r) ->
            let s = sessions.(i) in
            let expected = oracle_may_activate policy s r in
            let actual =
              match Rbac.Session.activate s r with
              | () -> true
              | exception Rbac.Session.Not_authorized _ ->
                  incr refused_activations;
                  false
            in
            if actual <> expected then
              mismatch "session %d: activating %s %s" i r
                (if actual then "succeeds" else "is refused");
            None
        | R_deactivate (i, r) ->
            Rbac.Session.deactivate sessions.(i) r;
            None
        | R_drop i ->
            Rbac.Session.drop sessions.(i);
            None
        | R_grant (r, perm) ->
            admin (fun () -> P.grant policy r perm);
            None
        | R_revoke (r, n) ->
            (match List.nth_opt (P.direct_permissions policy r) n with
            | Some perm -> P.revoke policy r perm
            | None -> ());
            None
        | R_inherit (senior, junior) ->
            admin (fun () -> P.add_inheritance policy ~senior ~junior);
            None
        | R_assign (u, r) ->
            admin (fun () -> P.assign_user policy u r);
            None
        | R_deassign (u, r) ->
            P.deassign_user policy u r;
            None
        | R_add_role r ->
            P.add_role policy r;
            None)
      events
  in
  (probes, List.rev !mismatches)

let rbac_runs = 500

(* a denial whose text carries [Sral.Clip]'s length note *)
let clipped_text why =
  let note = " bytes)" in
  let rec at i =
    i + String.length note <= String.length why
    && (String.sub why i (String.length note) = note || at (i + 1))
  in
  at 0

let test_compiled_rbac_vs_oracle () =
  let grants = ref 0 and denials = ref 0 and inherited = ref 0 in
  let bumped = ref 0 and clipped = ref 0 in
  let restamped = ref 0 and roles_moved = ref 0 in
  Gen.each_seed ~salt:2424 ~count:rbac_runs (fun ~seed rng ->
      let events = rbac_schedule rng in
      let diverges events =
        let probes, mismatches = run_rbac_schedule events in
        mismatches <> [] || List.exists (fun p -> p.expected <> p.actual) probes
      in
      let probes, _ = run_rbac_schedule events in
      List.iter
        (fun p ->
          (match p.expected with
          | Rbac.Engine.Granted -> incr grants
          | Rbac.Engine.Denied why ->
              incr denials;
              if clipped_text why then incr clipped);
          if p.inherited then incr inherited;
          if p.bumped then incr bumped;
          if p.restamped then incr restamped;
          if p.roles_moved then incr roles_moved)
        probes;
      if diverges events then begin
        let small = Gen.shrink_list ~fails:diverges events in
        Gen.report_minimized ~seed ~what:"RBAC schedule" pp_rbac_schedule
          small;
        let probes, mismatches = run_rbac_schedule small in
        Alcotest.(check (list string))
          (Printf.sprintf "seed %d: compiled = oracle" seed)
          [] mismatches;
        List.iter
          (fun p ->
            Alcotest.(check string)
              (Printf.sprintf "seed %d: compiled = decide_access" seed)
              (Format.asprintf "%a" Rbac.Engine.pp_verdict p.expected)
              (Format.asprintf "%a" Rbac.Engine.pp_verdict p.actual))
          probes
      end);
  Printf.printf
    "%d grants (%d through a junior role), %d denials (%d clipped), %d \
     probes after a version bump, %d after a role or policy change (%d by \
     roles alone), %d refused activations\n"
    !grants !inherited !denials !clipped !bumped !restamped !roles_moved
    !refused_activations;
  (* probes after a change read 6,677-6,720 (483-544 by roles alone)
     at seed offsets 0, 77, 1000 and 5000 *)
  Alcotest.(check bool)
    "schedules grant, deny, clip, inherit, bump, restamp and refuse" true
    (!grants >= rbac_runs && !denials >= rbac_runs
    && !clipped >= rbac_runs
    && !inherited >= rbac_runs / 5
    && !bumped >= rbac_runs
    && !restamped >= 12 * rbac_runs
    && !roles_moved >= 4 * rbac_runs / 5
    && !refused_activations >= rbac_runs)

let () =
  Alcotest.run "fuzz"
    [
      ( "invariants",
        [
          Alcotest.test_case "grants are rbac-sound" `Quick
            test_grants_are_rbac_sound;
          Alcotest.test_case "proofs match audit log" `Quick
            test_proofs_match_audit_log;
          Alcotest.test_case "deterministic replay" `Quick
            test_deterministic_replay;
          Alcotest.test_case "metric consistency" `Quick
            test_metric_consistency;
          Alcotest.test_case "duration budget" `Quick
            test_duration_budget_never_negative;
        ] );
      ( "differential",
        [
          Alcotest.test_case
            (Printf.sprintf "lazy = naive (spans too) over %d coalitions"
               diff_runs)
            `Quick test_differential_lazy_vs_naive;
          Alcotest.test_case "warm lazy path stays faithful" `Quick
            test_differential_lazy_repeated_checks;
          Alcotest.test_case "uninstrumented lazy = naive, direct" `Quick
            test_differential_lazy_direct;
        ] );
      ( "team-refold",
        [
          Alcotest.test_case
            (Printf.sprintf "lazy = naive over %d team schedules" team_runs)
            `Quick test_team_scope_lazy_vs_naive;
          Alcotest.test_case
            (Printf.sprintf "lazy = naive over %d companion-stamp schedules"
               stamp_runs)
            `Quick test_companion_stamp_lazy_vs_naive;
        ] );
      ( "rbac-table",
        [
          Alcotest.test_case
            (Printf.sprintf "compiled = decide_access over %d schedules"
               rbac_runs)
            `Quick test_compiled_rbac_vs_oracle;
        ] );
      ( "workflows",
        [
          Alcotest.test_case "family invariants" `Quick
            test_workflow_family_invariants;
          Alcotest.test_case "unsat family never completes" `Quick
            test_workflow_unsat_never_completes;
        ] );
      ( "admin",
        [
          Alcotest.test_case "adversarial family: symbolic = brute force"
            `Quick test_admin_adversarial_differential;
        ] );
    ]
